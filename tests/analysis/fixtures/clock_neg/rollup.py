"""Negative corpus: a rollup module that honours the injected-clock seam.

Referencing ``time.monotonic`` as a *default value* is the seam itself
and must not flag; only inline calls do.
"""

import time


class SeamedDecayTimer:
    def __init__(self, clock=time.monotonic):
        self._clock = clock

    def since_last_fold(self, started):
        return self._clock() - started

    def stamp(self):
        return self._clock()
