"""Positive corpus: an inline clock read in a clock-disciplined module.

Code that stamps events with ``time.monotonic()`` itself cannot be
driven by a fake clock, so the injectable default on the line above
the read does not make the file clean.
"""

import time


class LeakyRollup:
    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._last = None

    def observe(self, latency_s):
        self._last = time.monotonic()  # inline: bypasses the injected clock
        return latency_s
