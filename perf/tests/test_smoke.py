"""``--quick`` end to end: every declared metric, for every workload."""

import json
import subprocess
import sys

import pytest

from conftest import ROOT

from perf import metrics, workloads


@pytest.fixture(scope="module")
def result():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--quick", "--seed", "7"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    document = json.loads((ROOT / "perf" / "out" / "result.json").read_text())
    document["stdout"] = done.stdout
    return document


def test_every_declared_metric_is_reported_for_every_workload(result):
    assert list(result["workloads"]) == list(workloads.WORKLOADS)
    assert result["missing_probes"] == []
    for name, entry in result["workloads"].items():
        assert list(entry["end_to_end"]) == list(metrics.END_TO_END), name
        assert list(entry["per_layer"]) == list(metrics.PER_LAYER), name
        for metric, value in (entry["end_to_end"] | entry["per_layer"]).items():
            assert isinstance(value, (int, float)), (name, metric, value)
            assert f"  {metric} " in result["stdout"]
        assert all(value > 0 for value in entry["end_to_end"].values()), name


def test_every_response_was_checked_and_none_failed(result):
    for name, entry in result["workloads"].items():
        diagnostics = entry["diagnostics"]
        assert diagnostics["failed"] == 0 and diagnostics["failed_share"] == 0.0, name
        assert diagnostics["attempted"] == diagnostics["samples"] > 0, name
        assert diagnostics["valid"], name
        assert diagnostics["replay_matches_wire"], name


def test_loop_disciplines(result):
    for name, entry in result["workloads"].items():
        workload = workloads.WORKLOADS[name]
        assert entry["diagnostics"]["connections"] == workload.senders, name
        assert entry["diagnostics"]["sender_threads"] == workload.senders, name
    open_mix = result["workloads"]["open_mix"]
    assert open_mix["diagnostics"]["sender_threads"] == 2
    assert open_mix["per_layer"]["loadgen.late_p99_ms"] > 0
    assert result["workloads"]["single_small"]["per_layer"]["core.entries_per_rt"] == 0
    # bypassed: the metric reads the clock's floor, not the work of a layer
    assert 0 < result["workloads"]["single_small"]["per_layer"]["core.unpack_ms"] < 0.002


def test_the_unattributed_share_is_of_the_unscaled_round_trip(result):
    for name, entry in result["workloads"].items():
        layer = entry["per_layer"]
        reference = entry["diagnostics"]["reference_rt_ms"]
        if workloads.WORKLOADS[name].open_rate is None:
            assert reference == entry["diagnostics"]["rt_p50_raw_ms"], name
        assert layer["bench.unattributed_share"] == pytest.approx(
            1 - layer["bench.layer_sum_ms"] / reference
        ), name
        assert layer["bench.setup_cold_s"] == entry["diagnostics"]["setup_cold_s"] > 0, name


def test_one_trace_file_per_workload(result):
    for name in workloads.WORKLOADS:
        lines = (ROOT / "perf" / "out" / f"trace_{name}.jsonl").read_text().splitlines()
        span = json.loads(lines[0])
        assert set(span) == {"name", "start_ns", "end_ns", "parent", "rt_id", "self_ns"}
        assert len(lines) > 30
