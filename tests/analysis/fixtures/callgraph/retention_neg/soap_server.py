"""Negative corpus: the same dispatch entry touching containers whose
size request data does not decide."""

from container import ServiceContainer
from scanner import XmlScanner


class SoapServer:
    def __init__(self, config):
        self.container = ServiceContainer()
        self.container.deploy(config.service)
        self._last = {}

    def _execute(self, entries, context):
        scanner = XmlScanner(context.document)
        results = []
        for entry in entries:
            scanner.read(entry.raw)
            self._last["entry"] = entry  # keyed by a literal: one slot
            results.append(self.container.execute(entry))
        return results
