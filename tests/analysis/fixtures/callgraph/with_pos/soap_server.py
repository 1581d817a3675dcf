"""Positive corpus: request data reaches a container only through a
``with`` block.  ``_execute`` never calls ``Tracer._finish``; the span
handle's ``__exit__`` does, and it keys the tracer's table by the name
a client sent."""

from tracing import Tracer


class SoapServer:
    def __init__(self, config):
        self._tracer = Tracer()

    def _execute(self, entries, context):
        results = []
        for entry in entries:
            with self._tracer.span(entry.operation):
                results.append(entry)
        return results
