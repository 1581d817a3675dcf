"""Negative corpus: the same ``with`` block, whose exit keeps a bounded
ring of what it saw."""

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
