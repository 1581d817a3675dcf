"""Engine mechanics: suppression, walking, the finding model."""

from pathlib import Path

from repro.analysis import check
from repro.analysis.engine import iter_python_files
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.rules import NoBareExcept, NoWallclockDuration

FIXTURES = Path(__file__).parent / "fixtures"

BARE = "try:\n    pass\nexcept:\n    pass\n"


def bare_findings(source):
    return check([], [NoBareExcept()], sources={"x.py": source})


class TestSuppression:
    def test_inline_disable_silences_the_named_rule(self):
        source = BARE.replace("except:", "except:  # repro: disable=no-bare-except")
        assert bare_findings(source) == []

    def test_inline_disable_all(self):
        source = BARE.replace("except:", "except:  # repro: disable=all")
        assert bare_findings(source) == []

    def test_other_rule_ids_do_not_silence(self):
        source = BARE.replace("except:", "except:  # repro: disable=require-slots")
        assert len(bare_findings(source)) == 1

    def test_file_pragma_silences_whole_file(self):
        source = "# repro: disable-file=no-bare-except\n" + BARE
        assert bare_findings(source) == []

    def test_file_pragma_must_sit_near_the_top(self):
        source = BARE + ("\n" * 12) + "# repro: disable-file=no-bare-except\n"
        assert len(bare_findings(source)) == 1


class TestWalking:
    def test_fixtures_directory_is_never_walked_implicitly(self):
        files = list(iter_python_files([Path(__file__).parent], root=Path.cwd()))
        assert files, "the analysis test dir itself must be walked"
        assert not any("fixtures" in f.parts for f in files)

    def test_explicit_fixture_files_are_always_scanned(self):
        findings = check(
            [FIXTURES / "bare_except_pos.py"], [NoBareExcept()], root=FIXTURES
        )
        assert [f.rule_id for f in findings] == ["no-bare-except"]

    def test_non_python_files_are_ignored(self, tmp_path):
        (tmp_path / "data.json").write_text("{}")
        (tmp_path / "mod.py").write_text("import time\nstart = time.time()\n")
        findings = check([tmp_path], [NoWallclockDuration()], root=tmp_path)
        assert [f.path for f in findings] == ["mod.py"]


class TestFindingModel:
    def test_fingerprint_excludes_the_line(self):
        a = Finding("r", "error", "a.py", 1, "m")
        b = Finding("r", "error", "a.py", 99, "m")
        assert a.fingerprint == b.fingerprint

    def test_format_and_hints(self):
        f = Finding("r", "warning", "a.py", 7, "msg", fix_hint="do this")
        assert f.format() == "a.py:7: [warning] r: msg"
        assert "hint: do this" in f.format(hints=True)

    def test_sort_order(self):
        findings = [
            Finding("z-rule", "warning", "b.py", 1, "m"),
            Finding("a-rule", "error", "b.py", 1, "m"),
            Finding("r", "error", "a.py", 9, "m"),
        ]
        ordered = sort_findings(findings)
        assert [f.path for f in ordered] == ["a.py", "b.py", "b.py"]
        # same path/line: errors sort before warnings
        assert ordered[1].severity == "error"
