"""Layer probes survive the deletions the ROADMAP plans."""

import pytest

from perf import layers, workloads


@pytest.fixture
def deployment():
    workload = workloads.WORKLOADS["pack_small"]
    deployed = workloads.Deployment(workload, workloads.make_messages(workload, 1))
    yield deployed
    deployed.close()


def test_the_replay_reproduces_the_wire_and_the_answer(deployment):
    traced = layers.TracedRun(deployment)
    try:
        assert traced.run(0.0, 3) == 3
        measured, missing = traced.metrics()
    finally:
        traced.close()
    assert missing == {}
    assert traced.replay_matches_wire
    assert all(value is not None for value in measured.values())
    assert measured["core.entries_per_rt"] == 32
    assert 0 < measured["bench.layer_sum_ms"] < 1000
    assert len(traced.all_spans()) > 3 * len(layers.CHAIN)


def test_a_missing_symbol_nulls_its_metric_and_nothing_else_stops(deployment, monkeypatch):
    monkeypatch.setitem(layers.SYMBOLS, "xml_parse", "repro.xmlcore:parse_is_gone")
    monkeypatch.setitem(layers.SYMBOLS, "RequestParser", "repro.http.gone:RequestParser")
    traced = layers.TracedRun(deployment)
    try:
        traced.run(0.0, 2)
        measured, missing = traced.metrics()
    finally:
        traced.close()
    gone = {name for name, value in measured.items() if value is None}
    assert gone == {
        "xmlcore.parse_tree_ms", "xmlcore.parse_cursor_ms", "xmlcore.serialize_ms",
        "xmlcore.nodes_per_rt", "http.parse_request_push_ms",
    }
    assert set(missing) == {
        "xmlcore.parse_tree", "xmlcore.parse_cursor", "xmlcore.serialize",
        "http.parse_request_other",
    }
    assert "repro.xmlcore:parse_is_gone" in missing["xmlcore.parse_tree"]
    assert measured["bench.layer_sum_ms"] > 0  # the threaded chain never needed either


def test_a_chain_with_a_step_switched_off_has_no_sum(deployment, monkeypatch):
    monkeypatch.setitem(layers.SYMBOLS, "read_response", "repro.http:read_response_is_gone")
    traced = layers.TracedRun(deployment)
    try:
        traced.run(0.0, 2)
        measured, missing = traced.metrics()
    finally:
        traced.close()
    assert "http.parse_response" in missing
    assert measured["http.parse_response_ms"] is None
    assert measured["bench.layer_sum_ms"] is None  # not a sum that shrank
    assert measured["soap.client_encode_ms"] > 0


def test_the_drivers_line_calls_a_run_with_a_hole_incorrect():
    from perf import run

    units = {"xmlcore.parse_tree_ms": "ms", "core.pack_ms": "ms", "rt_p50_ms": "ms"}
    entry = {
        "ok": True,
        "diagnostics": {"attempted": 10, "failed": 0},
        "end_to_end": {"rt_p50_ms": 3.5},
        "per_layer": {"xmlcore.parse_tree_ms": None, "core.pack_ms": 0.02},
    }
    traced = run.driver_line(entry, 1, units)
    assert traced["correct"] is False
    assert traced["metrics"]["xmlcore.parse_tree_ms"] == {"value": 0.0, "unit": "ms"}
    assert run.driver_line(entry, 0, units)["correct"] is True
    entry["per_layer"]["xmlcore.parse_tree_ms"] = 4.1
    assert run.driver_line(entry, 1, units)["correct"] is True
