"""Tests for the text waterfall renderer and phase aggregation."""

from repro.obs.store import SpanStore, TraceRecord
from repro.obs.timeline import phase_breakdown, render_timeline
from repro.obs.trace import Tracer


def make_record():
    store = SpanStore()
    tracer = Tracer(store=store)
    tracer.record_span("client.call", "t1", 0.0, 0.010)
    tracer.record_span("soap.parse", "t1", 0.001, 0.004, detail="2KB")
    tracer.record_span("execute", "t1", 0.004, 0.006, detail="echo")
    tracer.record_span("execute", "t1", 0.005, 0.008, detail="echo")
    store.complete("t1", http_status=200)
    return store.get("t1")


class TestRenderTimeline:
    def test_header_and_one_line_per_span(self):
        out = render_timeline(make_record())
        lines = out.splitlines()
        assert lines[0] == "trace t1  4 spans  total 10.000 ms"
        assert len(lines) == 5
        assert "soap.parse[2KB]" in out
        assert "execute[echo]" in out

    def test_bars_are_positioned_on_the_shared_clock(self):
        out = render_timeline(make_record(), width=10)
        lines = out.splitlines()
        # client.call spans the whole window
        assert "|##########|" in lines[1]
        # every bar is exactly `width` characters wide
        for line in lines[1:]:
            bar = line.split("|")[1]
            assert len(bar) == 10
            assert set(bar) <= {"-", "#"}

    def test_a_record_without_spans_renders_its_header(self):
        assert render_timeline(TraceRecord("tx")) == "trace tx  (no spans recorded)"

    def test_zero_duration_spans_still_render(self):
        record = TraceRecord("t1")
        record.add(Tracer().record_span("instant", "t1", 1.0, 1.0), max_spans=8)
        out = render_timeline(record)
        assert "instant" in out


class TestPhaseBreakdown:
    def test_aggregates_by_name(self):
        phases = phase_breakdown(make_record().spans)
        assert phases["execute"]["count"] == 2
        assert phases["execute"]["total_ms"] == 5.0
        assert phases["execute"]["mean_ms"] == 2.5
        assert phases["client.call"]["count"] == 1
        assert "soap.parse" in phases

    def test_empty(self):
        assert phase_breakdown([]) == {}
