"""Negative fixture: bounded, delegated, or non-telemetry buffers."""

from collections import deque


class BoundedSpanRing:
    def __init__(self, capacity=1024):
        self._spans = deque(maxlen=capacity)


class EvictingTraceStore:
    def __init__(self, max_traces=256):
        self._traces = {}
        self._max_traces = max_traces

    def retain(self, record):
        self._traces[record.trace_id] = record
        while len(self._traces) > self._max_traces:
            self._traces.pop(next(iter(self._traces)))


class DelegatedSpanSlot:
    def __init__(self):
        # bounded by the owning store's max_spans_per_trace at ingest
        self.spans = []  # repro: disable=no-unbounded-cache


class NotATelemetryBuffer:
    def __init__(self):
        self._handlers = []
        self._routes = {}
