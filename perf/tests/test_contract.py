"""``BENCHMARK.json`` against the benchmark's own tables and the driver's rules."""

import json
import re
import shutil
import subprocess
import sys

import pytest
from conftest import ROOT

from perf import aa, metrics, workloads

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_has_exactly_the_contract_keys():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["perf"]
    assert BENCHMARK["command"] == ["python3", "perf/run.py"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60


def test_workloads_are_the_benchmarks_own():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {w.name: w.why for w in workloads.WORKLOADS.values() if w.gated}
    assert 2 <= len(declared) <= 8
    assert all(len(why) <= 200 and "\n" not in why for why in declared.values())


def test_metrics_are_the_benchmarks_own():
    end_to_end = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert end_to_end == metrics.END_TO_END
    assert per_layer == metrics.PER_LAYER
    assert end_to_end["setup_s"] == ("s", "lower")
    assert len(per_layer) <= 128
    names = list(end_to_end) + list(per_layer) + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(unit) for unit, _ in (end_to_end | per_layer).values())


def test_bounds_are_the_ones_the_recorded_a_a_gives():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    recorded = json.loads(aa.SPREAD_FILE.read_text())
    spreads = [record["spread"] for record in recorded["records"]]
    derived, unresolved = aa.derive_bounds(spreads, bounds[aa.EXACT])
    assert bounds == pytest.approx(derived)
    assert (derived, unresolved) == (recorded["derived_bounds"], recorded["unresolved"])
    for record in recorded["records"]:
        assert record["seconds"] == BENCHMARK["run_seconds"]
        assert set(record["spread"]) == {w["name"] for w in BENCHMARK["workloads"]}
        for rows in record["spread"].values():
            assert rows[aa.EXACT]["worst_deviation_share"] == 0
            # the driver refuses a benchmark whose quartile distance exceeds the bound
            assert all(row["iqr_share"] <= bounds[metric]
                       for metric, row in rows.items() if metric != "setup_s")


def test_the_rule_takes_the_widest_of_floor_worst_deviation_and_quartile_distance():
    def row(worst, iqr):
        return {"worst_deviation_share": worst, "iqr_share": iqr}

    spread = {
        "a": {"setup_s": row(0.02, 0.01), "rt_p50_ms": row(0.041, 0.01), aa.EXACT: row(0.0, 0.0)},
        "b": {"setup_s": row(0.02, 0.01), "rt_p50_ms": row(0.01, 0.01), "rt_p90_ms": row(0.2, 0.03),
              "calls_per_s": row(0.03, 0.04)},
    }
    bounds, unresolved = aa.derive_bounds([spread, {"b": {"rt_p90_ms": row(0.21, 0.01)}}], 0.01)
    assert bounds == {"setup_s": 0.25, "rt_p50_ms": 0.07, "rt_p90_ms": 0.25,
                      "calls_per_s": 0.12, aa.EXACT: 0.01}
    assert unresolved == ["b rt_p90_ms"]


def test_all_runs_fit_the_drivers_time_cap():
    runs = 4 + 22 * len(BENCHMARK["workloads"])
    per_run = BENCHMARK["run_seconds"] + 8  # interpreter, set-ups, tear-down
    assert runs * per_run <= 3420


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "pack_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "src/repro not found" in done.stderr
