"""Unit tests for trace ids, spans, the tracer, and ambient context."""

import inspect
import re

from repro.obs.store import SpanStore
from repro.obs.trace import (
    NULL_SPAN,
    Observability,
    Tracer,
    activate,
    current,
    current_trace_id,
    deactivate,
    new_trace_id,
    span,
    span_in,
)


class TestTraceIds:
    def test_64_bit_hex_and_distinct(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for tid in ids:
            assert re.fullmatch(r"[0-9a-f]{16}", tid)


def kept_spans(store, trace_id):
    """The spans ``store`` keeps for ``trace_id`` once it completes."""
    assert store.complete(trace_id, http_status=200)
    return store.get(trace_id).spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.5
        return self.now


class TestTracer:
    def test_span_context_manager_records_duration(self):
        store = SpanStore()
        tracer = Tracer(clock=FakeClock(), store=store)
        with tracer.span("phase", "t1", detail="d") as s:
            pass
        assert s.start == 0.5 and s.end == 1.0
        assert s.duration_s == 0.5
        [recorded] = kept_spans(store, "t1")
        assert recorded is s
        assert recorded.name == "phase" and recorded.detail == "d"

    def test_record_span_post_hoc(self):
        store = SpanStore()
        tracer = Tracer(store=store)
        s = tracer.record_span("http.parse", "t2", 1.0, 1.25, detail="/x")
        assert s.duration_s == 0.25
        assert kept_spans(store, "t2") == [s]

    def test_span_durations_feed_registry_sketches(self):
        obs = Observability()
        with obs.tracer.span("soap.parse", "t3"):
            pass
        snap = obs.registry.snapshot()
        assert snap["sketches"]["span.soap.parse.seconds"]["count"] == 1

    def test_a_finished_span_feeds_its_sketch_and_the_store_only(self):
        obs = Observability(span_store=SpanStore())
        with obs.tracer.span("soap.parse", "t1") as s:
            pass
        assert obs.registry.snapshot()["sketches"]["span.soap.parse.seconds"]["count"] == 1
        assert kept_spans(obs.store, "t1") == [s]
        # the tracer keeps nothing of its own
        assert not hasattr(obs.tracer, "spans") and not hasattr(obs.tracer, "__len__")

    def test_spans_filters_by_trace(self):
        store = SpanStore()
        tracer = Tracer(store=store)
        tracer.record_span("a", "t1", 0, 1)
        tracer.record_span("b", "t2", 0, 1)
        assert [s.name for s in kept_spans(store, "t1")] == ["a"]
        assert [s.name for s in kept_spans(store, "t2")] == ["b"]

    def test_knobs(self):
        assert list(inspect.signature(Tracer).parameters) == ["registry", "clock", "store"]
        assert list(inspect.signature(Observability).parameters) == ["span_store"]

    def test_as_dict_is_json_friendly(self):
        tracer = Tracer()
        s = tracer.record_span("a", "t1", 1.0, 3.0, detail="x")
        doc = s.as_dict()
        span_id = doc.pop("span_id")
        assert span_id and doc.pop("parent_id") == ""
        assert doc == {
            "trace_id": "t1",
            "name": "a",
            "detail": "x",
            "start_s": 1.0,
            "duration_s": 2.0,
        }


class TestAmbientContext:
    def teardown_method(self):
        deactivate()

    def test_inactive_thread_gets_the_shared_null_span(self):
        deactivate()
        assert span("anything") is NULL_SPAN
        assert current() is None
        assert current_trace_id() is None
        # the guard swallows detail writes and nests as a context manager
        with span("x") as s:
            s.detail = "ignored"
        assert not hasattr(NULL_SPAN, "detail")

    def test_active_thread_records_into_the_bound_trace(self):
        store = SpanStore()
        tracer = Tracer(store=store)
        activate(tracer, "tid")
        # no ambient span open, so the captured parent id is empty
        assert current() == (tracer, "tid", "")
        assert current_trace_id() == "tid"
        with span("work", detail="d"):
            pass
        deactivate()
        [s] = kept_spans(store, "tid")
        assert (s.name, s.detail) == ("work", "d")
        assert span("after") is NULL_SPAN

    def test_span_in_carries_context_across_threads(self):
        import threading

        store = SpanStore()
        tracer = Tracer(store=store)
        activate(tracer, "tid")
        ctx = current()
        deactivate()

        def worker():
            # this thread has no ambient context ...
            assert span("ambient") is NULL_SPAN
            # ... but the captured one still routes to the right trace
            with span_in(ctx, "execute", detail="entry"):
                pass

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        [s] = kept_spans(store, "tid")
        assert s.name == "execute"
        assert span_in(None, "x") is NULL_SPAN


class TestObservability:
    def test_metrics_snapshot_shape(self):
        obs = Observability()
        obs.registry.counter("c").inc()
        with obs.tracer.span("p", "t1"):
            pass
        snap = obs.metrics_snapshot()
        assert set(snap) == {"uptime_s", "counters", "gauges", "sketches"}
        assert snap["sketches"]["span.p.seconds"]["count"] == 1
        assert "span_store" in Observability(span_store=SpanStore()).metrics_snapshot()
