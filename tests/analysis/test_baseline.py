"""Baseline semantics: frozen vs new vs stale, reason preservation."""

from repro.analysis.baseline import (
    BaselineEntry,
    compare,
    entries_from_findings,
    load_baseline,
    save_baseline,
)
from repro.analysis.findings import Finding


RULE, MESSAGE = "no-wallclock-duration", "wall-clock read: time.time()"


def finding(rule=RULE, path="a.py", line=3, message=MESSAGE):
    return Finding(rule_id=rule, severity="error", path=path, line=line, message=message)


class TestCompare:
    def test_baselined_findings_do_not_fail(self):
        f = finding()
        entry = BaselineEntry(rule=f.rule_id, path=f.path, message=f.message)
        result = compare([f], [entry])
        assert result.ok
        assert result.baselined == [f]
        assert result.new == []

    def test_unknown_finding_is_new(self):
        result = compare([finding()], [])
        assert not result.ok
        assert len(result.new) == 1

    def test_line_drift_does_not_invalidate_the_baseline(self):
        entry = BaselineEntry(rule=RULE, path="a.py", message=MESSAGE)
        drifted = finding(line=99)  # same violation, new line number
        assert compare([drifted], [entry]).ok

    def test_count_allowance_caps_duplicates(self):
        entry = BaselineEntry(rule=RULE, path="a.py", message=MESSAGE, count=2)
        two = [finding(line=1), finding(line=2)]
        three = two + [finding(line=3)]
        assert compare(two, [entry]).ok
        result = compare(three, [entry])
        assert not result.ok
        assert len(result.new) == 1  # only the overflow fails

    def test_stale_entries_fail(self):
        # the change that fixes a finding removes its entry
        entry = BaselineEntry(rule="gone", path="old.py", message="fixed long ago")
        result = compare([], [entry])
        assert not result.ok
        assert result.stale == [entry]
        assert result.new == []


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        entries = [
            BaselineEntry(rule="r", path="b.py", message="m2", count=3, reason="why"),
            BaselineEntry(rule="r", path="a.py", message="m1"),
        ]
        target = tmp_path / "baseline.json"
        save_baseline(entries, target)
        loaded = load_baseline(target)
        # sorted for stable diffs: path before rule before message
        assert [e.path for e in loaded] == ["a.py", "b.py"]
        assert loaded[1].count == 3
        assert loaded[1].reason == "why"

    def test_malformed_baseline_raises(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text("[1, 2, 3]")
        try:
            load_baseline(target)
        except ValueError as exc:
            assert "entries" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_regeneration_preserves_reasons(self):
        previous = [
            BaselineEntry(
                rule=RULE,
                path="a.py",
                message=MESSAGE,
                reason="justified: legacy shim",
            )
        ]
        entries = entries_from_findings(
            [finding(), finding(path="b.py")], previous=previous
        )
        by_path = {e.path: e for e in entries}
        assert by_path["a.py"].reason == "justified: legacy shim"
        assert by_path["b.py"].reason == ""

    def test_regeneration_counts_duplicates(self):
        entries = entries_from_findings([finding(line=1), finding(line=2)])
        assert len(entries) == 1
        assert entries[0].count == 2
