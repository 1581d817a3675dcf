"""Negative corpus: the same rollup shape with clocks injected
throughout — wallclock-taint must stay silent."""

import time

from util import elapsed_since


class DecayTimer:
    def __init__(self, clock=time.monotonic):
        self._clock = clock

    def should_fold(self, start):
        return elapsed_since(start, self._clock) > 0.1
