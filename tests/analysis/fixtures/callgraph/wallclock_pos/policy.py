"""Positive corpus: clock-disciplined code transitively reading the
wall clock.

Named ``policy.py`` because wallclock-taint patrols the
clock-disciplined files; the per-module rule sees no direct call here,
only the interprocedural pass does."""

from util import elapsed_since


class DecayTimer:
    def should_fold(self, start):
        return elapsed_since(start) > 0.1  # tainted two calls down
