"""The lock-discipline analyzer against the seeded-race fixture."""

import ast
from pathlib import Path

from repro.analysis import analyze_module, check_source, format_lock_report
from repro.analysis.locks import CALLER_HELD, LockDiscipline, analyze_class

FIXTURES = Path(__file__).parent / "fixtures"
SOURCE = (FIXTURES / "locks_seeded.py").read_text()


def fixture_findings():
    # A path without a 'tests' segment, so the rule's exemption stays out
    # of the way.
    return check_source(SOURCE, path="concurrency/seeded.py", rules=[LockDiscipline()])


def report_for(name):
    tree = ast.parse(SOURCE)
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return analyze_class(node, "seeded.py")
    raise AssertionError(f"no class {name} in fixture")


class TestSeededFindings:
    def test_mixed_write_race_is_reported(self):
        messages = [f.message for f in fixture_findings()]
        assert any(
            "SeededRace._items" in m and "potential race" in m for m in messages
        ), messages

    def test_unlocked_read_is_reported(self):
        messages = [f.message for f in fixture_findings()]
        assert any(
            "SeededRace._items" in m and "read without it in peek" in m
            for m in messages
        ), messages

    def test_lock_order_inversion_is_reported(self):
        messages = [f.message for f in fixture_findings()]
        assert any(
            "Inverted: lock-order inversion" in m
            and "_io_lock" in m
            and "_table_lock" in m
            for m in messages
        ), messages

    def test_transitive_self_deadlock_is_reported(self):
        # outer() holds _lock and calls inner(), which re-acquires it.
        messages = [f.message for f in fixture_findings()]
        assert any(
            "SelfDeadlock" in m and "re-acquire" in m for m in messages
        ), messages

    def test_clean_classes_stay_silent(self):
        messages = [f.message for f in fixture_findings()]
        assert not any("Disciplined" in m for m in messages)
        assert not any("CallerHeld" in m for m in messages)


class TestAnalyzeClass:
    def test_guarded_attrs_and_mixed_writes(self):
        report = report_for("SeededRace")
        assert report.locks == {"_lock"}
        assert "_items" in report.guarded_attrs()
        assert [a.method for a in report.mixed_writes("_items")] == ["drop_all"]
        assert [a.method for a in report.unlocked_reads("_items")] == ["peek"]

    def test_init_is_exempt(self):
        # Construction writes happen-before publication; none are recorded.
        report = report_for("Disciplined")
        assert all(
            access.method != "__init__"
            for accesses in report.accesses.values()
            for access in accesses
        )

    def test_locked_suffix_means_caller_holds_the_lock(self):
        report = report_for("CallerHeld")
        writes = [a for a in report.accesses["_pending"] if a.kind == "write"]
        assert writes and all(a.lock == CALLER_HELD for a in writes)
        assert report.mixed_writes("_pending") == []

    def test_order_pairs_record_nesting(self):
        report = report_for("Inverted")
        assert ("_table_lock", "_io_lock") in report.order_pairs
        assert ("_io_lock", "_table_lock") in report.order_pairs


class TestModuleReport:
    def test_analyze_module_covers_every_lock_user(self):
        reports = analyze_module(ast.parse(SOURCE), "seeded.py")
        names = {r.name for r in reports}
        assert {"SeededRace", "Inverted", "SelfDeadlock", "Disciplined", "CallerHeld"} <= names

    def test_format_lock_report_renders_status(self):
        reports = analyze_module(ast.parse(SOURCE), "seeded.py")
        text = format_lock_report(reports)
        assert "class SeededRace" in text
        assert "MIXED WRITES" in text
        assert "nesting:" in text

    def test_concurrency_modules_are_analyzable(self):
        # The five concurrency modules named by the issue all produce
        # lock reports (the analyzer actually sees their locks).
        import repro

        src_root = Path(repro.__file__).parent
        for relative in (
            "server/threadpool.py",
            "server/container.py",
            "server/stage.py",
            "http/core.py",
            "obs/registry.py",
            "obs/trace.py",
        ):
            tree = ast.parse((src_root / relative).read_text())
            reports = analyze_module(tree, relative)
            assert any(r.locks for r in reports), f"{relative}: no locks found"
