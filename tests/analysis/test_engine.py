"""Engine mechanics: suppression, walking, the finding model."""

from pathlib import Path

from repro.analysis import check
from repro.analysis.engine import iter_python_files
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.rules import NoWallclockDuration, RequireSlots

FIXTURES = Path(__file__).parent / "fixtures"

WALL = "import time\n\nstart = time.time()\n"
READ = "start = time.time()"


def wall_findings(source):
    return check([], [NoWallclockDuration()], sources={"x.py": source})


class TestSuppression:
    def test_inline_disable_silences_the_named_rule(self):
        source = WALL.replace(READ, READ + "  # repro: disable=no-wallclock-duration")
        assert wall_findings(source) == []

    def test_inline_disable_all(self):
        source = WALL.replace(READ, READ + "  # repro: disable=all")
        assert wall_findings(source) == []

    def test_other_rule_ids_do_not_silence(self):
        source = WALL.replace(READ, READ + "  # repro: disable=require-slots")
        assert len(wall_findings(source)) == 1

    def test_file_pragma_silences_whole_file(self):
        source = "# repro: disable-file=no-wallclock-duration\n" + WALL
        assert wall_findings(source) == []

    def test_file_pragma_must_sit_near_the_top(self):
        source = WALL + ("\n" * 12) + "# repro: disable-file=no-wallclock-duration\n"
        assert len(wall_findings(source)) == 1

    def test_a_disable_naming_no_rule_is_reported(self):
        # the inline half of the stale-baseline rule: a pragma naming an
        # id no rule has (a deleted rule's, a typo) is an allowance that
        # names nothing, whichever rules the run asked for
        source = (
            "# repro: disable-file=no-unbounded-cache\n"
            + WALL.replace(READ, READ + "  # repro: disable=no-wallclock-duration,no-such-rule")
            + "x = 1  # repro: disable=all\n"
        )
        findings = wall_findings(source)
        assert [(f.rule_id, f.line, f.message) for f in findings] == [
            ("unknown-disable", 1, "disable names no rule: no-unbounded-cache"),
            ("unknown-disable", 4, "disable names no rule: no-such-rule"),
        ]
        assert all(f.severity == "error" for f in findings)
        # ids of rules the run did not ask for are still rules
        silenced = WALL.replace(READ, READ + "  # repro: disable=no-wallclock-duration")
        assert check([], [RequireSlots()], sources={"x.py": silenced}) == []

    def test_pragma_text_inside_a_string_is_no_pragma(self):
        # only comments are pragmas: a string that spells one (as this
        # file's own sources do) silences nothing and names nothing
        source = (
            'NOTE = "# repro: disable-file=no-wallclock-duration"\n'
            + WALL.replace(READ, READ + '; TEXT = "# repro: disable=no-wallclock-duration"')
            + 'BAD = "# repro: disable=no-such-rule"\n'
        )
        findings = wall_findings(source)
        assert [(f.rule_id, f.line) for f in findings] == [("no-wallclock-duration", 4)]


class TestWalking:
    def test_fixtures_directory_is_never_walked_implicitly(self):
        files = list(iter_python_files([Path(__file__).parent], root=Path.cwd()))
        assert files, "the analysis test dir itself must be walked"
        assert not any("fixtures" in f.parts for f in files)

    def test_explicit_fixture_files_are_always_scanned(self):
        findings = check([FIXTURES / "slots_pos.py"], [RequireSlots()], root=FIXTURES)
        assert [f.rule_id for f in findings] == ["require-slots"]

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
