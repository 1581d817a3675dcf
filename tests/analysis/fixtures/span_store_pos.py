"""Positive fixture: span and trace buffers fed by traffic.  Every
request leaves its span in a list, in an index by trace id and in a
trace log, and nothing trims any of them."""

from collections import deque


class Span:
    __slots__ = ("name", "trace_id", "events")

    def __init__(self, name, trace_id):
        self.name = name
        self.trace_id = trace_id
        self.events = []  # built per request: dies with it

    def event(self, what):
        self.events.append(what)


class UnboundedSpanRing:
    def __init__(self):
        self._spans = []
        self._trace_index = {}

    def ingest(self, span):
        self._spans.append(span)
        self._trace_index.setdefault(span.trace_id, []).append(span)


class UnboundedTraceLog:
    def __init__(self):
        self.completed_traces = deque()

    def finish(self, trace_id):
        self.completed_traces.append(trace_id)


class SoapEndpoint:
    def __init__(self, execute):
        self._execute = execute
        self.spans = UnboundedSpanRing()
        self.traces = UnboundedTraceLog()

    def __call__(self, request):
        span = Span("soap.parse", request.trace_id)
        span.event(request.action)
        self.spans.ingest(span)
        self.traces.finish(request.trace_id)
        return self._execute(request.entries, request)
