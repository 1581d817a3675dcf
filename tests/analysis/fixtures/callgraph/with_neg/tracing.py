"""Negative corpus: the tracer's exit appends to a deque with a maxlen."""

import collections


class _SpanHandle:
    def __init__(self, tracer, name):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._tracer._finish(self._name)


class Tracer:
    def __init__(self):
        self._recent = collections.deque(maxlen=256)

    def span(self, name) -> _SpanHandle:
        return _SpanHandle(self, name)

    def _finish(self, name):
        self._recent.append(name)
