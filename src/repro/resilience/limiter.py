"""AIMD adaptive concurrency: the client-side half of overload control.

PR-8's server sheds with ``Server.Busy`` when its stages saturate; this
module closes the loop on the client so callers *stop offering load* a
melting server will only shed.  The mechanism is TCP's AIMD congestion
window transplanted onto in-flight calls:

* every success grows the limit additively (``+ additive / limit`` per
  call, i.e. +1 per round-trip's worth of calls, like one MSS per RTT);
* every shed signal (``Server.Busy`` fault, raw HTTP 503) halves it —
  at most once per ``cooldown_s`` of the *injected* clock, so one burst
  of sheds from a single congestion event does not collapse the window
  to the floor;
* callers that would exceed the limit are gated locally with a fast
  retryable fault instead of a wire round-trip, which the normal
  :class:`~repro.resilience.policy.CallPolicy` retry machinery then
  backs off and retries.

All state lives behind one lock; time only enters through the injected
``clock`` (enforced by the ``wallclock-taint`` analysis), so
the seeded chaos convergence suite is deterministic.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable

from repro.errors import InvocationError

#: Outcomes a caller reports back to :meth:`AdaptiveLimiter.release`.
OUTCOME_SUCCESS = "success"
OUTCOME_OVERLOAD = "overload"
OUTCOME_ERROR = "error"


class AdaptiveLimiter:
    """Per-target AIMD concurrency window.

    ``try_acquire`` admits a call while fewer than ``floor(limit)``
    calls are in flight; ``release(outcome)`` returns the slot and
    adjusts the window.  Non-overload errors (transport faults, fatal
    SOAP faults) are neutral: they neither grow nor shrink the window.
    """

    __slots__ = (
        "_lock",
        "_clock",
        "_limit",
        "_min_limit",
        "_max_limit",
        "_additive",
        "_decrease",
        "_cooldown_s",
        "_last_decrease_at",
        "_in_flight",
        "_gated",
        "_successes",
        "_overloads",
        "_decreases",
    )

    def __init__(
        self,
        *,
        initial: float = 8.0,
        min_limit: float = 1.0,
        max_limit: float = 256.0,
        additive: float = 1.0,
        decrease: float = 0.5,
        cooldown_s: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 1.0 <= min_limit <= initial <= max_limit:
            raise InvocationError(
                "AdaptiveLimiter requires 1 <= min_limit <= initial <= max_limit"
            )
        if additive <= 0.0:
            raise InvocationError("AdaptiveLimiter.additive must be > 0")
        if not 0.0 < decrease < 1.0:
            raise InvocationError("AdaptiveLimiter.decrease must be in (0, 1)")
        if cooldown_s < 0.0:
            raise InvocationError("AdaptiveLimiter.cooldown_s must be >= 0")
        self._lock = threading.Lock()
        self._clock = clock
        self._limit = float(initial)
        self._min_limit = float(min_limit)
        self._max_limit = float(max_limit)
        self._additive = additive
        self._decrease = decrease
        self._cooldown_s = cooldown_s
        self._last_decrease_at: float | None = None
        self._in_flight = 0
        self._gated = 0
        self._successes = 0
        self._overloads = 0
        self._decreases = 0

    def try_acquire(self) -> bool:
        """Admit one call, or gate it when the window is full."""
        with self._lock:
            if self._in_flight >= math.floor(self._limit):
                self._gated += 1
                return False
            self._in_flight += 1
            return True

    def release(self, outcome: str) -> None:
        """Return an admitted call's slot and adapt the window."""
        with self._lock:
            if self._in_flight <= 0:
                raise InvocationError("AdaptiveLimiter.release without acquire")
            self._in_flight -= 1
            if outcome == OUTCOME_SUCCESS:
                self._successes += 1
                self._limit = min(
                    self._max_limit, self._limit + self._additive / self._limit
                )
            elif outcome == OUTCOME_OVERLOAD:
                self._overloads += 1
                now = self._clock()
                if (
                    self._last_decrease_at is None
                    or now - self._last_decrease_at >= self._cooldown_s
                ):
                    self._limit = max(
                        self._min_limit, self._limit * self._decrease
                    )
                    self._decreases += 1
                    self._last_decrease_at = now
            elif outcome != OUTCOME_ERROR:
                raise InvocationError(
                    f"unknown limiter outcome {outcome!r}"
                )

    @property
    def limit(self) -> float:
        with self._lock:
            return self._limit

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @property
    def gated(self) -> int:
        """Calls rejected locally because the window was full."""
        with self._lock:
            return self._gated

    def snapshot(self) -> dict:
        """A consistent point-in-time view of the limiter's counters
        (limit, in-flight, gated, successes, overloads, decreases)."""
        with self._lock:
            return {
                "limit": self._limit,
                "in_flight": self._in_flight,
                "gated": self._gated,
                "successes": self._successes,
                "overloads": self._overloads,
                "decreases": self._decreases,
            }
