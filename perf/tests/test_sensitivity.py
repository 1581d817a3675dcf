"""Sensitivity self-check: an injected slowdown trips its own rail only.

Every service call spins N microseconds, N sized to push ``pack_small``'s
median round trip twice as far as its bound (32 calls per round trip; the two
runs are minutes apart on a box whose speed drifts, so less would be a coin
toss).
Then ``pack_small`` must regress beyond the bound and ``server.execute_ms``
must carry the injected time, while ``pack_large`` (4 calls per round trip)
stays inside its bound and no other layer probe moves by even a third of what
was injected.  Takes about two minutes.
"""

import json
import subprocess
import sys

import pytest

from conftest import ROOT

SECONDS = "9"
CALLS_PER_ROUND_TRIP = 32
#: Metrics that contain the service function's own time.
EXECUTE_RAILS = {
    "server.execute_ms", "server.execute_self_ms", "server.endpoint_ms", "bench.layer_sum_ms",
}


def run(*extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--workload", "pack_small",
         "--workload", "pack_large", "--seed", "11", "--seconds", SECONDS, *extra],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((ROOT / "perf" / "out" / "result.json").read_text())["workloads"]


@pytest.fixture(scope="module")
def runs():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}["rt_p50_ms"]
    baseline = run()
    target_ms = 2 * bound * baseline["pack_small"]["end_to_end"]["rt_p50_ms"]
    execute_us = round(target_ms * 1000 / CALLS_PER_ROUND_TRIP)
    injected = run("--inject", f"execute_us={execute_us}")
    return bound, execute_us * CALLS_PER_ROUND_TRIP / 1000, baseline, injected


def test_pack_small_regresses_beyond_its_bound(runs):
    bound, _, baseline, injected = runs
    before = baseline["pack_small"]["end_to_end"]["rt_p50_ms"]
    after = injected["pack_small"]["end_to_end"]["rt_p50_ms"]
    assert after > before * (1 + bound)


def test_the_execute_rail_carries_the_injected_time(runs):
    _, injected_ms, baseline, injected = runs
    moved = (injected["pack_small"]["per_layer"]["server.execute_ms"]
             - baseline["pack_small"]["per_layer"]["server.execute_ms"])
    assert 0.8 * injected_ms < moved < 1.5 * injected_ms


def test_pack_large_stays_inside_its_bound(runs):
    bound, _, baseline, injected = runs
    before = baseline["pack_large"]["end_to_end"]["rt_p50_ms"]
    after = injected["pack_large"]["end_to_end"]["rt_p50_ms"]
    assert after < before * (1 + bound)


def test_no_other_layer_probe_moves(runs):
    _, injected_ms, baseline, injected = runs
    moved = {}
    for metric, before in baseline["pack_small"]["per_layer"].items():
        if metric.endswith("_ms") and metric not in EXECUTE_RAILS and not metric.startswith("loadgen."):
            delta = injected["pack_small"]["per_layer"][metric] - before
            if abs(delta) > injected_ms / 3:
                moved[metric] = delta
    assert moved == {}
