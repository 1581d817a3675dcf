"""The repo checks itself: the committed baseline gates ``src`` and ``tests``.

This is the same invocation CI runs.  If it fails here, either a new
violation crept in (fix it or baseline it with a reason) or the
baseline went stale against a fixed finding (regenerate it).
"""

import ast
from pathlib import Path

import pytest

from repro.analysis import main
from repro.analysis.baseline import load_baseline
from repro.analysis.rules import HOT_PATH_CLASSES
from repro.analysis.taint import (
    CLOCK_DISCIPLINED_FILES,
    DISPATCH_ENTRIES,
    LOOP_IO_WRAPPERS,
    RESPONSE_ENTRIES,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "analysis_baseline.json"


@pytest.fixture()
def at_repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


def test_src_and_tests_are_clean_against_the_baseline(at_repo_root, capsys):
    exit_code = main(["check", "src", "tests", "--baseline", str(BASELINE)])
    out = capsys.readouterr().out
    assert exit_code == 0, f"repo no longer passes its own analysis gate:\n{out}"
    assert "analysis clean" in out


def test_every_baseline_entry_carries_a_reason(at_repo_root):
    entries = load_baseline(BASELINE)
    assert entries, "baseline unexpectedly empty"
    unexplained = [e.message for e in entries if not e.reason.strip()]
    assert not unexplained, (
        "baseline entries need a human reason explaining why the finding "
        f"is tolerated: {unexplained}"
    )


def test_a_seeded_violation_fails_the_gate(at_repo_root, capsys):
    # The CI-failure path: point the same gate at a fixture that contains
    # violations the baseline does not know about.
    exit_code = main(
        [
            "check",
            "tests/analysis/fixtures/wallclock_pos.py",
            "--baseline",
            str(BASELINE),
        ]
    )
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "[warning] no-wallclock-duration: wall-clock read: time.time()" in out


def test_no_stale_baseline_entries(at_repo_root, capsys):
    main(["check", "src", "tests", "--baseline", str(BASELINE)])
    assert "stale" not in capsys.readouterr().out


def test_every_registry_entry_names_something_in_src():
    # a registered name with nothing behind it is a rule silently
    # checking nothing: require-slots' classes, may-block's barrier
    # wrappers, wallclock-taint's clock-disciplined files, and the
    # entries fault-flow-escape and request-keyed-retention start from
    src = REPO_ROOT / "src"
    classes, functions, methods = set(), set(), set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes.add(node.name)
                methods.update(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.add(node.name)
    files = {path.name for path in src.rglob("*.py")}
    assert sorted(HOT_PATH_CLASSES - classes) == []
    assert sorted(LOOP_IO_WRAPPERS - functions) == []
    assert sorted(CLOCK_DISCIPLINED_FILES - files) == []
    assert sorted(set(DISPATCH_ENTRIES + RESPONSE_ENTRIES) - methods) == []
