"""Positive corpus: the registry half of the same leak.  ``rollup`` is
reached from the dispatch entry with the client's names; ``counter`` is
not (the server binds its counters when it is built)."""

import threading


class ObsRollup:
    def __init__(self, service, operation):
        self.service = service
        self.operation = operation

    def begin(self):
        return None


class Counter:
    def __init__(self, name):
        self.name = name

    def inc(self):
        return None


class MetricsRegistry:
    def __init__(self):
        self._counters = {}
        self._rollups = {}
        self._lock = threading.Lock()

    def counter(self, name):
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
        return instrument

    def rollup(self, service, operation):
        key = (service, operation)
        with self._lock:
            instrument = self._rollups.get(key)
            if instrument is None:
                instrument = self._rollups[key] = ObsRollup(service, operation)
        return instrument
