"""Positive corpus: the per-target rollup cache of ``SoapServer`` as it
stood before per-operation metrics were bound at deploy time.  The key
is the operation name a client sent, and nothing ever evicts it, so
made-up names grow the server without bound.
"""

from registry import MetricsRegistry


class SoapServer:
    def __init__(self, config):
        self.registry = MetricsRegistry()
        # (namespace, operation) -> ObsRollup, written on first sight
        self._rollups = {}
        self._timeouts = self.registry.counter("resilience.deadline_expired")

    def _execute(self, entries, context):
        results = []
        for entry in entries:
            if context.deadline is not None and context.deadline.expired():
                results.append(self._skipped(entry))
            else:
                results.append(self._run(entry))
        return results

    def _run(self, entry):
        rollup = self._rollup_for(entry)
        rollup.begin()
        return entry

    def _rollup_for(self, entry):
        qname = entry.qname
        key = (qname.uri, qname.local)
        rollup = self._rollups.get(key)
        if rollup is None:
            rollup = self.registry.rollup(*key)
            self._rollups[key] = rollup
        return rollup

    def _skipped(self, entry):
        self._timeouts.inc()
        return self._rollup_for(entry)
