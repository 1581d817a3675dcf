"""Negative fixture: span and trace buffers the dispatch entry feeds
that stay bounded: a ``deque(maxlen=)`` ring, an evicting store, and
a per-request span's own event list."""

from collections import deque


class Span:
    __slots__ = ("trace_id", "events")

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.events = []  # built per request: dies with it

    def event(self, what):
        self.events.append(what)


class BoundedSpanRing:
    def __init__(self, capacity=1024):
        self._spans = deque(maxlen=capacity)

    def ingest(self, span):
        self._spans.append(span)


class EvictingTraceStore:
    def __init__(self, max_traces=256):
        self._traces = {}
        self._max_traces = max_traces

    def retain(self, span):
        self._traces[span.trace_id] = span
        while len(self._traces) > self._max_traces:
            self._traces.pop(next(iter(self._traces)))


class SoapEndpoint:
    def __init__(self):
        self.spans = BoundedSpanRing()
        self.traces = EvictingTraceStore()

    def __call__(self, request):
        span = Span(request.trace_id)
        span.event(request.action)
        self.spans.ingest(span)
        self.traces.retain(span)
        return span
