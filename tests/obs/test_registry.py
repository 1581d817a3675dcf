"""Unit tests for the unified metrics registry."""

import threading

from repro.obs.registry import Counter, Gauge, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.snapshot() == 5

    def test_concurrent_increments_do_not_lose_updates(self):
        c = Counter()
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("inflight")
        g.set(3.0)
        g.add(2.0)
        g.add(-1.0)
        assert g.value == 4.0
        assert g.snapshot() == 4.0


class TestMetricsRegistry:
    def test_instruments_are_created_once(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.sketch("c") is reg.sketch("c")

    def test_snapshot_groups_by_kind_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z.count").inc()
        reg.counter("a.count").inc(2)
        reg.gauge("depth").set(7)
        reg.sketch("lat").record(0.5)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.count", "z.count"]
        assert snap["counters"]["a.count"] == 2
        assert snap["gauges"]["depth"] == 7
        assert snap["sketches"]["lat"]["count"] == 1
