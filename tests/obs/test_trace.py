"""Unit tests for trace ids, spans, the tracer, and ambient context."""

import re

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


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.5
        return self.now


class TestTracer:
    def test_span_context_manager_records_duration(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("phase", "t1", detail="d") as s:
            pass
        assert s.start == 0.5 and s.end == 1.0
        assert s.duration_s == 0.5
        [recorded] = tracer.spans("t1")
        assert recorded is s
        assert recorded.name == "phase" and recorded.detail == "d"

    def test_record_span_post_hoc(self):
        tracer = Tracer()
        s = tracer.record_span("http.parse", "t2", 1.0, 1.25, detail="/x")
        assert s.duration_s == 0.25
        assert tracer.spans("t2") == [s]

    def test_span_durations_feed_registry_sketches(self):
        obs = Observability()
        with obs.tracer.span("soap.parse", "t3"):
            pass
        snap = obs.registry.snapshot()
        assert snap["sketches"]["span.soap.parse.seconds"]["count"] == 1

    def test_ring_capacity_bounds_memory(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.record_span("s", f"t{i}", 0.0, 1.0)
        assert len(tracer) == 4
        assert tracer.trace_ids() == ["t6", "t7", "t8", "t9"]

    def test_spans_filters_by_trace(self):
        tracer = Tracer()
        tracer.record_span("a", "t1", 0, 1)
        tracer.record_span("b", "t2", 0, 1)
        assert [s.name for s in tracer.spans("t1")] == ["a"]
        assert len(tracer.spans()) == 2

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
        tracer = Tracer()
        activate(tracer, "tid")
        # no ambient span open, so the captured parent id is empty
        assert current() == (tracer, "tid", "")
        assert current_trace_id() == "tid"
        with span("work", detail="d"):
            pass
        deactivate()
        [s] = tracer.spans("tid")
        assert (s.name, s.detail) == ("work", "d")
        assert span("after") is NULL_SPAN

    def test_span_in_carries_context_across_threads(self):
        import threading

        tracer = Tracer()
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
        [s] = tracer.spans("tid")
        assert s.name == "execute"
        assert span_in(None, "x") is NULL_SPAN


class TestObservability:
    def test_metrics_snapshot_shape(self):
        obs = Observability()
        obs.registry.counter("c").inc()
        with obs.tracer.span("p", "t1"):
            pass
        snap = obs.metrics_snapshot()
        for key in ("uptime_s", "spans_recorded", "traces", "counters", "gauges", "sketches"):
            assert key in snap
        assert snap["spans_recorded"] == 1
        assert snap["traces"] == 1

    def test_iter_traces(self):
        obs = Observability()
        obs.tracer.record_span("a", "t1", 0, 1)
        obs.tracer.record_span("b", "t2", 0, 1)
        pairs = list(obs.iter_traces())
        assert [tid for tid, _ in pairs] == ["t1", "t2"]
        assert [s.name for _, spans in pairs for s in spans] == ["a", "b"]
