"""The ``python -m repro.analysis`` command line: exit codes and formats."""

import json

import pytest

from repro.analysis import RULES, main

CLEAN = "def ok():\n    return 1\n"
DIRTY = "import time\n\n\ndef broken():\n    time.sleep(1)\n    return time.time()\n"


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
        assert "[warning] no-direct-sleep-random: direct call: time.sleep()" in out
        assert "[warning] no-wallclock-duration: wall-clock read: time.time()" in out

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
        assert {"no-direct-sleep-random", "no-wallclock-duration"} <= rules

    def test_new_findings_print_their_hints(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, dirty=True)
        monkeypatch.chdir(tmp_path)
        assert main(["check", "pkg"]) == 1
        out = capsys.readouterr().out
        assert "    hint: accept an injected sleep/rng" in out

    def test_summary_counts_findings_per_rule(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, dirty=True)
        monkeypatch.chdir(tmp_path)
        assert main(["baseline", "pkg", "-o", "frozen.json"]) == 0
        capsys.readouterr()
        assert main(["check", "pkg", "--baseline", "frozen.json"]) == 0
        out = capsys.readouterr().out
        assert "no-direct-sleep-random [warning]: 1 (0 new)" in out
        assert "lock-discipline [warning]: 0 (0 new)" in out
        assert all(rule.id in out for rule in RULES)

    def test_stale_baseline_entry_exits_one(self, tmp_path, monkeypatch, capsys):
        # the gate itself fails on an entry nothing matches any more
        write_tree(tmp_path, dirty=True)
        monkeypatch.chdir(tmp_path)
        assert main(["baseline", "pkg", "-o", "frozen.json"]) == 0
        (tmp_path / "pkg" / "mod.py").write_text(CLEAN)
        capsys.readouterr()
        assert main(["check", "pkg", "--baseline", "frozen.json"]) == 1
        out = capsys.readouterr().out
        assert "stale baseline entr" in out
        assert "analysis clean" not in out
        assert main(["check", "pkg", "--baseline", "frozen.json", "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False and document["new"] == []
        assert len(document["stale_baseline_entries"]) == 2

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
            if entry["rule"] == "no-direct-sleep-random":
                entry["reason"] = "kept on purpose"
        (tmp_path / "frozen.json").write_text(json.dumps(document))
        assert main(["baseline", "pkg", "-o", "frozen.json"]) == 0
        reloaded = json.loads((tmp_path / "frozen.json").read_text())
        reasons = {e["rule"]: e["reason"] for e in reloaded["entries"]}
        assert reasons["no-direct-sleep-random"] == "kept on purpose"


class TestOtherCommands:
    def test_rules_lists_every_rule(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "no-wallclock-duration",
            "no-direct-sleep-random",
            "require-slots",
            "no-unbounded-queue",
            "no-swallowed-fault",
            "lock-discipline",
            "request-keyed-retention",
        ):
            assert rule_id in out
        listed = [line.split()[0] for line in out.splitlines() if not line.startswith(" ")]
        assert listed == [rule.id for rule in RULES]
        assert len(set(listed)) == 10

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "pkg"],
            ["report-locks", "pkg"],
            ["report-callgraph", "pkg"],
            ["check", "pkg", "--hints"],
            ["check", "pkg", "--show-baselined"],
        ],
    )
    def test_check_baseline_and_rules_are_the_whole_surface(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
