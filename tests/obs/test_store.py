"""SpanStore: tail-sampling retention policy, bounds under concurrent
writers, span-tree assembly, and retry merging."""

import inspect
import random
import threading

from repro.obs import FLAG_DEADLINE, FLAG_FAULT, FLAG_SHED, SpanStore
from repro.obs.trace import Span


def make_span(trace_id, name="work", start=0.0, end=0.001, parent_id="", detail=""):
    span = Span(trace_id, name, detail, parent_id=parent_id)
    span.start = start
    span.end = end
    return span


def complete_boring(store, trace_id, duration=0.001):
    store.ingest(make_span(trace_id, end=duration))
    return store.complete(trace_id, http_status=200)


class TestTailSampling:
    def test_knobs(self):
        # the slow-trace cut is DEFAULT_KEEP_PERCENTILE, not a keyword
        assert list(inspect.signature(SpanStore).parameters) == [
            "max_traces", "max_pending", "max_spans_per_trace", "max_bytes",
            "sample_rate", "rng",
        ]

    def test_cold_start_keeps_everything(self):
        store = SpanStore(sample_rate=0.0, rng=random.Random(1))
        for i in range(10):
            assert complete_boring(store, f"t{i}")
        assert store.stats()["dropped"] == 0

    def test_boring_traces_drop_once_history_exists(self):
        store = SpanStore(sample_rate=0.0, rng=random.Random(1))
        # varied durations so most fall below the keep percentile
        for i in range(40):
            complete_boring(store, f"t{i}", duration=0.001 * (i % 10 + 1))
        stats = store.stats()
        assert stats["dropped"] > 0
        assert stats["kept"] + stats["dropped"] == stats["completed"]

    def test_flagged_traces_always_survive(self):
        store = SpanStore(sample_rate=0.0, rng=random.Random(1))
        for i in range(30):
            complete_boring(store, f"boring{i}")
        flagged = []
        for i, fault_class in enumerate(("fatal", "shed", "timeout") * 3):
            trace_id = f"bad{i}"
            store.ingest(make_span(trace_id))
            store.mark(trace_id, fault_class)
            assert store.complete(trace_id, http_status=200)
            flagged.append(trace_id)
        assert set(flagged) <= set(store.flagged_ids())

    def test_http_status_maps_to_flags(self):
        store = SpanStore(sample_rate=1.0, rng=random.Random(1))
        for trace_id, status, flag in (
            ("shed", 503, FLAG_SHED),
            ("late", 504, FLAG_DEADLINE),
            ("bad", 500, FLAG_FAULT),
        ):
            store.ingest(make_span(trace_id))
            store.complete(trace_id, http_status=status)
            assert store.get(trace_id).tree()["flags"] == [flag]

    def test_entry_fault_class_maps_to_flags(self):
        """A pack answers HTTP 200 with per-entry faults inside; each
        entry's fault class flags the trace through the same table."""
        store = SpanStore(sample_rate=1.0, rng=random.Random(1))
        for trace_id, fault_class, flag in (
            ("entry-shed", "shed", FLAG_SHED),
            ("entry-late", "timeout", FLAG_DEADLINE),
            ("entry-bad", "fatal", FLAG_FAULT),
        ):
            store.ingest(make_span(trace_id))
            store.mark(trace_id, fault_class)
            store.complete(trace_id, http_status=200)
            assert store.get(trace_id).tree()["flags"] == [flag]

    def test_slow_traces_survive_without_flags(self):
        store = SpanStore(sample_rate=0.0, rng=random.Random(1))
        for i in range(30):
            complete_boring(store, f"fast{i}", duration=0.001)
        store.ingest(make_span("slow", end=1.0))
        assert store.complete("slow", http_status=200)
        assert store.stats()["kept_slow"] >= 1

    def test_mark_before_any_span_is_not_lost(self):
        store = SpanStore(sample_rate=0.0, rng=random.Random(1))
        store.mark("early", "shed")
        store.ingest(make_span("early"))
        assert store.complete("early", http_status=200)
        assert "early" in store.flagged_ids([FLAG_SHED])


class TestBounds:
    def test_trace_count_bound_evicts_oldest_boring(self):
        store = SpanStore(max_traces=4, sample_rate=1.0, rng=random.Random(1))
        store.ingest(make_span("flagged"))
        store.mark("flagged", "fatal")
        store.complete("flagged", http_status=200)
        for i in range(10):
            complete_boring(store, f"t{i}")
        assert len(store) <= 4
        # the flagged record outlives every boring one
        assert "flagged" in store.trace_ids()

    def test_byte_bound_is_enforced(self):
        store = SpanStore(
            max_traces=10_000, max_bytes=5_000, sample_rate=1.0,
            rng=random.Random(1),
        )
        for i in range(50):
            store.ingest(make_span(f"t{i}", detail="x" * 200))
            store.complete(f"t{i}", http_status=200)
        assert store.size_bytes <= 5_000
        assert store.stats()["evicted"] > 0

    def test_per_trace_span_bound_counts_drops(self):
        store = SpanStore(max_spans_per_trace=5, sample_rate=1.0, rng=random.Random(1))
        for _ in range(8):
            store.ingest(make_span("big"))
        store.complete("big", http_status=200)
        record = store.get("big")
        assert (len(record.spans), record.dropped_spans) == (5, 3)
        assert record.tree()["dropped_spans"] == 3

    def test_pending_bound_evicts_oldest_slot(self):
        store = SpanStore(max_pending=3, sample_rate=1.0, rng=random.Random(1))
        for i in range(6):
            store.ingest(make_span(f"t{i}"))
        assert store.stats()["pending"] <= 3
        assert store.stats()["pending_evicted"] == 3

    def test_bounds_hold_under_concurrent_writers(self):
        store = SpanStore(
            max_traces=16, max_bytes=20_000, max_pending=32,
            sample_rate=1.0, rng=random.Random(1),
        )
        per_thread = 200

        def writer(worker):
            for i in range(per_thread):
                trace_id = f"w{worker}-{i}"
                store.ingest(make_span(trace_id, detail="y" * 50))
                if i % 7 == 0:
                    store.mark(trace_id, "fatal")
                store.complete(trace_id, http_status=200)
                assert len(store) <= 16
                assert store.size_bytes <= 20_000

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = store.stats()
        assert stats["retained"] <= 16
        assert stats["retained_bytes"] <= 20_000
        assert stats["pending"] <= 32
        assert stats["completed"] == 8 * per_thread


class TestTreesAndRetries:
    def test_tree_nests_children_under_parents(self):
        store = SpanStore(sample_rate=1.0, rng=random.Random(1))
        root = make_span("t", name="server.handle", start=0.0, end=1.0)
        child_a = make_span("t", name="execute", start=0.1, end=0.4,
                            parent_id=root.span_id)
        child_b = make_span("t", name="execute", start=0.5, end=0.9,
                            parent_id=root.span_id)
        orphan = make_span("t", name="http.parse", start=0.0, end=0.05)
        for span in (root, child_a, child_b, orphan):
            store.ingest(span)
        store.complete("t", http_status=200)
        tree = store.get("t").tree()
        roots = {node["name"]: node for node in tree["roots"]}
        assert set(roots) == {"server.handle", "http.parse"}
        children = roots["server.handle"]["children"]
        assert [c["name"] for c in children] == ["execute", "execute"]
        # children are ordered by start time
        assert children[0]["start_s"] < children[1]["start_s"]

    def test_retry_reusing_the_id_merges_into_one_record(self):
        store = SpanStore(sample_rate=1.0, rng=random.Random(1))
        store.ingest(make_span("t", name="attempt1", end=0.2))
        store.complete("t", http_status=503)
        store.ingest(make_span("t", name="attempt2", start=0.3, end=0.5))
        assert store.complete("t", http_status=200)
        tree = store.get("t").tree()
        names = {root["name"] for root in tree["roots"]}
        assert names == {"attempt1", "attempt2"}
        assert tree["flags"] == [FLAG_SHED]
        summary = store.slowest(1)[0]
        assert summary["completions"] == 2

    def test_completing_unknown_trace_is_a_noop(self):
        store = SpanStore(rng=random.Random(1))
        assert store.complete("ghost", http_status=200) is False

    def test_slowest_orders_by_duration(self):
        store = SpanStore(sample_rate=1.0, rng=random.Random(1))
        for trace_id, duration in (("a", 0.1), ("b", 0.5), ("c", 0.3)):
            store.ingest(make_span(trace_id, end=duration))
            store.complete(trace_id, http_status=200)
        assert [row["trace_id"] for row in store.slowest(2)] == ["b", "c"]
