"""Percentiles, the sample-count rule, spreads, and how rounds are reduced."""

import statistics
from types import SimpleNamespace

import pytest

from perf import bench, loadgen, stats, workloads


def test_percentile_interpolates_between_ranks():
    samples = [4.0, 1.0, 3.0, 2.0]  # unsorted on purpose
    assert stats.percentile(samples, 0) == 1.0
    assert stats.percentile(samples, 50) == 2.5
    assert stats.percentile(samples, 100) == 4.0
    assert stats.percentile(samples, 90) == pytest.approx(3.7)
    assert stats.percentile([7.0], 99) == 7.0


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_pooled_weighs_rounds_by_their_samples():
    rounds = [[1.0] * 9, [100.0]]
    assert stats.percentile(stats.pooled(rounds), 50) == 1.0
    assert len(stats.pooled(rounds)) == 10


@pytest.mark.parametrize(
    "count,expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_a_percentile_needs_ten_samples_beyond_it(count, expected):
    assert stats.highest_supported_percentile(count) == expected


def test_iqr_share_is_the_drivers_formula():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.worst_deviation_share(values) == pytest.approx(1.0 / 10.0)


def _run_of(round_latencies_ms, workload="pack_small", slowdowns=None):
    """A WorkloadRun whose rounds hold the given latencies."""
    workload = workloads.WORKLOADS[workload]
    deployment = SimpleNamespace(
        workload=workload,
        messages=workloads.make_messages(workload, 1),
        transport=SimpleNamespace(channels=[object()]),
    )
    run = bench.WorkloadRun(deployment, setup_s=0.2, setup_cold_s=0.3, setup_raw_s=0.25)
    shapes = [shape for shape, _ in workload.mix]
    for latencies, slowdown in zip(round_latencies_ms, slowdowns or [1.0] * 99):
        sent = [loadgen.Sent(i, 0.0, 0.0, ms / 1e3, True) for i, ms in enumerate(latencies)]
        batch = bench.Batch(sent, wall_s=1.0, cpu_s=0.5, slowdown=slowdown)
        run.rounds.append(bench.RoundLog([batch], shapes, 7000 * len(sent)))
    return run


def test_the_metric_is_the_median_over_rounds_of_the_rounds_own_percentile():
    calm = [1.0] * 9 + [2.0]  # p50 1.0, p90 1.1
    stalled = [1.0] * 5 + [9.0] * 5  # half the round trips of this round stall
    measured = bench.end_to_end(_run_of([calm, calm, calm, stalled, stalled]))
    assert measured["rt_p50_ms"] == pytest.approx(1.0)
    assert measured["rt_p90_ms"] == pytest.approx(1.1)
    assert measured["rt_p90_pooled_ms"] == pytest.approx(9.0)  # the diagnostic sees the pool
    # a stall in most rounds moves the metric
    measured = bench.end_to_end(_run_of([calm, calm, stalled, stalled, stalled]))
    assert measured["rt_p90_ms"] == pytest.approx(9.0)
    assert measured["calls_per_s"] == pytest.approx(320.0)  # 10 messages x 32 calls in 1 s
    assert measured["setup_cold_s"] == 0.3 and measured["setup_s"] == 0.2
    assert measured["setup_raw_s"] == 0.25


def test_a_batchs_times_are_divided_by_how_much_slower_the_reference_ran_beside_it():
    run = _run_of([[2.0] * 5])
    slow = [loadgen.Sent(5 + i, 0.0, 0.0, 3.0 / 1e3, True) for i in range(5)]
    run.rounds[0].batches.append(bench.Batch(slow, wall_s=1.5, cpu_s=0.75, slowdown=1.5))
    measured = bench.end_to_end(run)
    assert measured["rt_p50_ms"] == measured["rt_p90_ms"] == pytest.approx(2.0)
    assert measured["rt_p50_raw_ms"] == pytest.approx(2.5)
    assert measured["calls_per_s"] == pytest.approx(320 / 2.0)  # 10 x 32 calls in 1 + 1.5 / 1.5 s
    assert measured["cpu_ms_per_call"] == pytest.approx(1000 / 320)
    assert measured["slowdown"] == pytest.approx(1.25)


def test_set_ups_are_scaled_by_the_reference_beside_them(monkeypatch):
    monkeypatch.setattr(bench, "reference", lambda: 2 * bench.REFERENCE_S)
    monkeypatch.setattr(bench.workloads, "Deployment",
                        lambda *a, **k: SimpleNamespace(close=lambda: None))
    monkeypatch.setattr(bench, "MAX_SETUPS", 7)
    _, setup_s, cold_s, raw_s = bench.deploy(None, None, True, 0)
    assert setup_s == pytest.approx(raw_s / 2) and cold_s > 0
    _, setup_s, cold_s, raw_s = bench.deploy(None, None, False, 0)  # the traced run: once
    assert setup_s == cold_s == pytest.approx(raw_s / 2)


def test_a_rounds_times_are_divided_by_how_much_slower_the_box_ran_around_it():
    rounds = [[2.0] * 10, [3.0] * 10, [2.0] * 10]  # the box ran half as fast again in round 2
    measured = bench.end_to_end(_run_of(rounds, slowdowns=[1.0, 1.5, 1.0]))
    assert measured["rt_p50_ms"] == measured["rt_p90_ms"] == pytest.approx(2.0)
    assert measured["rt_p50_raw_ms"] == pytest.approx(2.0)  # the median hid it here anyway
    assert measured["cpu_ms_per_call"] == pytest.approx(500 / 320)
    measured = bench.end_to_end(_run_of(rounds[:2], slowdowns=[1.0, 1.5]))
    assert measured["rt_p50_ms"] == pytest.approx(2.0)
    assert measured["rt_p50_raw_ms"] == pytest.approx(2.5)
    assert measured["calls_per_s"] == pytest.approx((320 + 320 * 1.5) / 2)  # closed loop: scaled up
    measured = bench.end_to_end(_run_of([[2.0] * 20] * 2, "open_mix", slowdowns=[1.0, 1.5]))
    assert measured["calls_per_s"] == pytest.approx(75.0)  # the schedule sets an open loop's rate


def test_one_shape_is_held_against_its_own_unscaled_rt_p50():
    run = _run_of([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [5.0, 6.0, 7.0]], slowdowns=[1.0, 1.2, 1.1])
    assert bench.reference_rt_ms(run) == bench.end_to_end(run)["rt_p50_raw_ms"] == 3.0
