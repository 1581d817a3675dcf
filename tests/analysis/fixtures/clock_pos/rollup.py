"""Positive corpus: inline wall-clock use inside a rollup module.

The file is named ``rollup.py`` because wallclock-taint scopes itself to
the clock-disciplined filenames.
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
