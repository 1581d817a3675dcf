"""The ``python -m repro.analysis`` command line: exit codes and formats."""

import json
from pathlib import Path

from repro.analysis import main

FIXTURES = Path(__file__).parent / "fixtures"

CLEAN = "def ok():\n    return 1\n"
DIRTY = "import time\n\n\ndef broken():\n    try:\n        return time.time()\n    except:\n        return None\n"


def write_tree(tmp_path, dirty=False):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(DIRTY if dirty else CLEAN)
    return package


class TestCheck:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["check", "pkg"]) == 0
        assert "analysis clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, dirty=True)
        monkeypatch.chdir(tmp_path)
        assert main(["check", "pkg"]) == 1
        out = capsys.readouterr().out
        assert "NEW finding" in out
        assert "no-bare-except" in out
        assert "no-wallclock-duration" in out

    def test_missing_baseline_exits_two(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["check", "pkg", "--baseline", "nope.json"]) == 2

    def test_unreadable_baseline_exits_two(self, tmp_path, monkeypatch):
        write_tree(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        monkeypatch.chdir(tmp_path)
        assert main(["check", "pkg", "--baseline", "bad.json"]) == 2

    def test_baselined_findings_freeze(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, dirty=True)
        monkeypatch.chdir(tmp_path)
        assert main(["baseline", "pkg", "-o", "frozen.json"]) == 0
        capsys.readouterr()
        assert main(["check", "pkg", "--baseline", "frozen.json"]) == 0
        assert "frozen by baseline" in capsys.readouterr().out

    def test_json_format(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, dirty=True)
        monkeypatch.chdir(tmp_path)
        assert main(["check", "pkg", "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        rules = {f["rule"] for f in document["new"]}
        assert {"no-bare-except", "no-wallclock-duration"} <= rules

    def test_syntax_error_becomes_a_finding(self, tmp_path, monkeypatch, capsys):
        package = write_tree(tmp_path)
        (package / "broken.py").write_text("def oops(:\n")
        monkeypatch.chdir(tmp_path)
        assert main(["check", "pkg"]) == 1
        assert "syntax-error" in capsys.readouterr().out


class TestBaselineCommand:
    def test_regeneration_preserves_reasons(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, dirty=True)
        monkeypatch.chdir(tmp_path)
        assert main(["baseline", "pkg", "-o", "frozen.json"]) == 0
        document = json.loads((tmp_path / "frozen.json").read_text())
        for entry in document["entries"]:
            if entry["rule"] == "no-bare-except":
                entry["reason"] = "kept on purpose"
        (tmp_path / "frozen.json").write_text(json.dumps(document))
        assert main(["baseline", "pkg", "-o", "frozen.json"]) == 0
        reloaded = json.loads((tmp_path / "frozen.json").read_text())
        reasons = {e["rule"]: e["reason"] for e in reloaded["entries"]}
        assert reasons["no-bare-except"] == "kept on purpose"


class TestOtherCommands:
    def test_rules_lists_every_rule(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "no-wallclock-duration",
            "no-direct-sleep-random",
            "require-slots",
            "no-unbounded-queue",
            "no-bare-except",
            "no-swallowed-fault",
            "lock-discipline",
        ):
            assert rule_id in out

    def test_report_locks(self, tmp_path, monkeypatch, capsys):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "locks.py").write_text((FIXTURES / "locks_seeded.py").read_text())
        monkeypatch.chdir(tmp_path)
        assert main(["report-locks", "pkg"]) == 0
        out = capsys.readouterr().out
        assert "class SeededRace" in out
        assert "lock-using class(es) analyzed" in out
