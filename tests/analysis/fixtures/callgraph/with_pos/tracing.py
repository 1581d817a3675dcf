"""Positive corpus: a tracer whose per-name table grows at span exit."""


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
        self._counts = {}

    def span(self, name) -> _SpanHandle:
        return _SpanHandle(self, name)

    def _finish(self, name):
        self._counts[name] = self._counts.get(name, 0) + 1
