"""Positive corpus: an inline clock read in a rollup module.

The hedge trigger reads its latency quantiles from ``obs/rollup.py``;
a rollup that stamps events with ``time.monotonic()`` itself cannot be
driven by a fake clock, so the file is held to the same injected-clock
discipline as ``hedge.py`` and ``limiter.py``.
"""

import time


class LeakyRollup:
    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._last = None

    def observe(self, latency_s):
        self._last = time.monotonic()  # inline: bypasses the injected clock
        return latency_s
