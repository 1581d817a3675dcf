"""QuantileSketch: relative-error property tests against a sorted
oracle, merge semantics, bucket bounds, and thread safety."""

import random
import threading

import pytest

from repro.obs import QuantileSketch

PROBE_QUANTILES = (0.5, 0.9, 0.95, 0.99)

#: Acceptance bound: reported quantiles within 2% of the exact oracle
#: (the sketch's own guarantee is alpha=1%; 2% leaves room for the
#: oracle's nearest-rank discretization on finite samples).
MAX_RELATIVE_ERROR = 0.02


def oracle_quantile(values, q):
    ordered = sorted(values)
    return ordered[int(q * (len(ordered) - 1))]


def assert_quantiles_close(sketch, values):
    for q in PROBE_QUANTILES:
        truth = oracle_quantile(values, q)
        estimate = sketch.quantile(q)
        assert estimate == pytest.approx(truth, rel=MAX_RELATIVE_ERROR), (
            f"q={q}: sketch {estimate} vs oracle {truth}"
        )


class TestRelativeErrorProperty:
    def test_bimodal_distribution(self):
        rng = random.Random(42)
        values = [
            rng.gauss(0.002, 0.0002) if rng.random() < 0.7 else rng.gauss(0.5, 0.05)
            for _ in range(20_000)
        ]
        values = [abs(v) + 1e-9 for v in values]
        sketch = QuantileSketch()
        for v in values:
            sketch.record(v)
        assert_quantiles_close(sketch, values)

    def test_heavy_tail_lognormal(self):
        rng = random.Random(7)
        values = [rng.lognormvariate(-6.0, 2.0) for _ in range(20_000)]
        sketch = QuantileSketch()
        for v in values:
            sketch.record(v)
        assert_quantiles_close(sketch, values)

    def test_constant_distribution(self):
        values = [0.125] * 5_000
        sketch = QuantileSketch()
        for v in values:
            sketch.record(v)
        for q in PROBE_QUANTILES:
            assert sketch.quantile(q) == pytest.approx(0.125, rel=MAX_RELATIVE_ERROR)

    def test_uniform_sweep(self):
        rng = random.Random(3)
        values = [rng.uniform(1e-4, 10.0) for _ in range(20_000)]
        sketch = QuantileSketch()
        for v in values:
            sketch.record(v)
        assert_quantiles_close(sketch, values)


class TestMerge:
    def test_merge_equals_union_stream(self):
        rng = random.Random(11)
        left = [rng.lognormvariate(-5.0, 1.5) for _ in range(5_000)]
        right = [rng.lognormvariate(-3.0, 1.0) for _ in range(5_000)]
        a, b = QuantileSketch(), QuantileSketch()
        for v in left:
            a.record(v)
        for v in right:
            b.record(v)
        a.merge(b)
        assert a.count == 10_000
        assert a.sum == pytest.approx(sum(left) + sum(right))
        assert_quantiles_close(a, left + right)

    def test_merge_rejects_alpha_mismatch(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))

    def test_merge_tracks_min_max(self):
        a, b = QuantileSketch(), QuantileSketch()
        a.record(0.5)
        b.record(0.001)
        b.record(7.0)
        a.merge(b)
        assert (a.min, a.max) == (0.001, 7.0)


class TestBoundsAndEdges:
    def test_empty_sketch_answers_zero(self):
        sketch = QuantileSketch()
        assert sketch.quantile(0.99) == 0.0
        assert (sketch.count, sketch.sum, sketch.mean) == (0, 0.0, 0.0)
        assert (sketch.min, sketch.max) == (0.0, 0.0)

    def test_rejects_bad_alpha_and_quantile(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(alpha=1.5)
        with pytest.raises(ValueError):
            QuantileSketch().quantile(1.5)

    def test_nonpositive_values_land_in_zero_bucket(self):
        sketch = QuantileSketch()
        for v in (-0.5, 0.0, 0.0):
            sketch.record(v)
        sketch.record(1.0)
        assert sketch.count == 4
        assert sketch.quantile(0.0) == 0.0
        # ranks inside the zero mass answer 0; the top rank is the
        # single positive observation
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) == pytest.approx(1.0, rel=MAX_RELATIVE_ERROR)

    def test_bucket_count_is_hard_bounded(self):
        sketch = QuantileSketch(max_buckets=16)
        rng = random.Random(5)
        for _ in range(10_000):
            sketch.record(rng.uniform(1e-7, 1e3))
        assert len(sketch._buckets) <= 16
        snap = sketch.snapshot()
        assert snap["collapsed_buckets"] > 0
        # collapsing sacrifices the bottom, never the tail
        values_p99 = sketch.quantile(0.99)
        assert values_p99 > sketch.quantile(0.5)

    def test_snapshot_shape(self):
        sketch = QuantileSketch()
        sketch.record(0.25)
        sketch.record(0.75)
        snap = sketch.snapshot()
        assert snap["count"] == 2 and snap["alpha"] == 0.01
        assert (snap["sum"], snap["mean"]) == (1.0, 0.5) == (sketch.sum, sketch.mean)
        assert set(snap["quantiles"]) == {"p50", "p90", "p95", "p99"}


class TestThreadSafety:
    def test_concurrent_records_lose_nothing(self):
        sketch = QuantileSketch()
        per_thread = 2_000

        def writer(seed):
            rng = random.Random(seed)
            for _ in range(per_thread):
                sketch.record(rng.uniform(1e-4, 1.0))

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sketch.count == 8 * per_thread
