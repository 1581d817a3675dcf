"""Positive corpus: inline wall-clock use inside a hedge module.

The file is named ``hedge.py`` because wallclock-taint scopes itself to
the clock-disciplined filenames (hedge / limiter / rollup).
"""

import time
from time import monotonic


class LeakyHedgeTimer:
    def trigger_elapsed(self, started):
        return time.time() - started  # inline wall-clock read

    def wait_for_trigger(self, trigger_s):
        time.sleep(trigger_s)  # sleeping instead of racing futures

    def stamp(self):
        return time.monotonic()  # inline monotonic read

    def measure(self):
        return time.perf_counter()  # inline perf_counter read
