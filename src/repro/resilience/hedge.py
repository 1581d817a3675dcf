"""Hedged requests: the tail-at-scale speculative retry.

Dean & Barroso's observation is that the p99 of a fan-out is dominated
by stragglers, and that firing a *second* copy of a request once the
first has outlived the operation's own p95 cuts the tail while adding
only a few percent of extra load.  This module holds the pure policy
half of that idea:

* :class:`HedgePolicy` — when to hedge: the trigger quantile read from
  the live per-(service, operation) rollup (one hedge per call at
  most), and the traffic budget;
* :class:`HedgeBudget` — a per-proxy token bucket measured in *calls*,
  so hedges stay at or below ``budget_rate`` of traffic no matter how
  slow the backend gets;
* :func:`hedge_trigger` — the decision function mapping (policy,
  rollup, attempt budget) to "fire the hedge after this many seconds",
  or ``None`` when hedging is not sensible yet.

The racing itself (threads, connection abandonment, first-response-
wins) lives in :mod:`repro.client.proxy`; keeping the decision logic
here means it is testable with a handful of floats and enforceable by
the ``wallclock-taint`` analysis: nothing in this module
may read the wall clock or sleep — time only ever arrives as an
argument.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import InvocationError


@dataclass(frozen=True, slots=True)
class HedgePolicy:
    """When a proxy may fire a speculative second attempt.

    * ``quantile`` — the rollup latency quantile that arms the hedge:
      once the first attempt has been in flight longer than
      ``rollup.latency_quantile(quantile)``, the hedge fires;
    * ``budget_rate`` — long-run hedge fraction of traffic (0.05 =
      hedges stay at or below 5% of calls);
    * ``budget_burst`` — bucket depth: how many hedges may fire
      back-to-back before the rate limit bites;
    * ``min_samples`` — rollup observations required before the
      quantile is trusted (a cold sketch would hedge everything);
    * ``min_trigger_s`` — floor under the trigger so a microsecond
      quantile cannot turn every call into a double send.
    """

    quantile: float = 0.95
    budget_rate: float = 0.05
    budget_burst: float = 4.0
    min_samples: int = 16
    min_trigger_s: float = 0.001

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise InvocationError("HedgePolicy.quantile must be within (0, 1)")
        if self.budget_rate <= 0.0:
            raise InvocationError("HedgePolicy.budget_rate must be > 0")
        if self.budget_burst < 1.0:
            raise InvocationError("HedgePolicy.budget_burst must be >= 1")
        if self.min_samples < 1:
            raise InvocationError("HedgePolicy.min_samples must be >= 1")
        if self.min_trigger_s < 0.0:
            raise InvocationError("HedgePolicy.min_trigger_s must be >= 0")


class HedgeBudget:
    """Token bucket keeping hedges a bounded fraction of traffic.

    Tokens are denominated in *calls*, not seconds: every hedge-eligible
    exchange deposits ``rate`` tokens (capped at ``burst``), and firing
    one hedge spends a whole token.  A long streak of slow calls can
    therefore hedge at most ``burst`` times up front and ``rate`` of
    the time thereafter — the tail-at-scale "≤5% extra load" invariant,
    with no clock involved.
    """

    __slots__ = ("_rate", "_burst", "_tokens", "_spent", "_denied", "_lock")

    def __init__(self, rate: float = 0.05, burst: float = 4.0) -> None:
        if rate <= 0.0:
            raise InvocationError("HedgeBudget rate must be > 0")
        if burst < 1.0:
            raise InvocationError("HedgeBudget burst must be >= 1")
        self._rate = rate
        self._burst = burst
        self._tokens = burst  # start full: the first slow call may hedge
        self._spent = 0
        self._denied = 0
        self._lock = threading.Lock()

    @classmethod
    def for_policy(cls, policy: HedgePolicy) -> "HedgeBudget":
        return cls(rate=policy.budget_rate, burst=policy.budget_burst)

    def note_call(self) -> None:
        """Record one hedge-eligible call; accrues ``rate`` tokens."""
        with self._lock:
            self._tokens = min(self._burst, self._tokens + self._rate)

    def try_spend(self) -> bool:
        """Spend one token to fire a hedge; False when exhausted."""
        with self._lock:
            if self._tokens < 1.0:
                self._denied += 1
                return False
            self._tokens -= 1.0
            self._spent += 1
            return True

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    @property
    def spent(self) -> int:
        """Hedges granted so far."""
        with self._lock:
            return self._spent

    @property
    def denied(self) -> int:
        """Hedges suppressed because the bucket was empty."""
        with self._lock:
            return self._denied

    def snapshot(self) -> dict:
        """A consistent point-in-time view of the bucket (tokens left,
        hedges spent, hedges denied)."""
        with self._lock:
            return {
                "tokens": self._tokens,
                "spent": self._spent,
                "denied": self._denied,
            }


def hedge_trigger(
    policy: HedgePolicy,
    rollup,
    attempt_budget_s: float | None,
) -> float | None:
    """Seconds the first attempt may run before the hedge fires.

    Returns ``None`` — do not hedge — when the rollup has fewer than ``min_samples`` observations (cold-start
    guard), or the trigger would land at or beyond the attempt's own
    I/O budget (the timeout will fire first, so a hedge adds nothing).
    """
    if rollup is None or rollup.calls < policy.min_samples:
        return None
    trigger = max(
        rollup.latency_quantile(policy.quantile), policy.min_trigger_s
    )
    if attempt_budget_s is not None and trigger >= attempt_budget_s:
        return None
    return trigger
