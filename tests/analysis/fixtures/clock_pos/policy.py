"""Positive corpus: inline wall-clock use inside a clock-disciplined
module.

The file is named ``policy.py`` because wallclock-taint scopes itself to
the clock-disciplined filenames.  Code that stamps events with
``time.monotonic()`` itself cannot be driven by a fake clock, so an
injectable default on the line above the read does not make it clean.
"""

import time
from time import monotonic


class LeakyDecayTimer:
    def since_last_fold(self, started):
        return time.time() - started  # inline wall-clock read

    def wait_for_fold(self, interval_s):
        time.sleep(interval_s)  # sleeping instead of reading the clock

    def stamp(self):
        return time.monotonic()  # inline monotonic read

    def measure(self):
        return time.perf_counter()  # inline perf_counter read


class LeakyStamp:
    def __init__(self, clock=time.monotonic):  # the seam: legal
        self._clock = clock
        self._last = time.monotonic()  # inline: bypasses the injected clock
