"""The one client-side resilience knob: :class:`CallPolicy`.

Before this module, timeout/retry behaviour was scattered as ad-hoc
kwargs across the three client entry points (``proxy.call`` had none,
``Invoker.invoke_all(timeout=...)`` only bounded the future wait, the
pack path hard-coded its own).  A :class:`CallPolicy` collapses all of
it into one immutable object consumed uniformly by
:meth:`~repro.client.proxy.ServiceProxy.call`, the invokers, and the
futures pack path:

* ``timeout`` — per-attempt budget (seconds);
* ``deadline`` — whole-call budget across *all* attempts, propagated to
  the server as a ``mustUnderstand="0"`` SOAP header so entries that
  would start after expiry are skipped with a ``Server.Timeout`` fault
  instead of executing (see :mod:`repro.resilience.deadline`);
* ``retries`` — how many times a *retryable* failure may be retried,
  with exponential backoff and full jitter between attempts;
* ``retryable_faultcodes`` — which SOAP faultcodes are safe to retry
  (defaults to the taxonomy codes that promise "the work did not run").

Hedging is a per-proxy behaviour, armed by ``ClientConfig.hedge``.

The retry loop itself is :func:`execute_with_policy`, deterministic
under an injected ``rng``/``sleep``/``clock`` so the chaos-transport
suite can test it without wall-clock time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.errors import (
    HttpError,
    InvocationError,
    RETRYABLE_FAULTCODES,
    SoapFaultError,
    TransportError,
)

# Process-wide RNG for backoff jitter; tests inject their own seeded one.
_JITTER_RNG = random.Random()


class Deadline:
    """A monotonic expiry instant shared by client attempts and server
    entry execution.  ``None`` budget means "never expires"."""

    __slots__ = ("_expires_at", "_clock")

    def __init__(self, budget_s: float | None, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._expires_at = None if budget_s is None else clock() + budget_s

    @classmethod
    def never(cls) -> "Deadline":
        return cls(None)

    @property
    def bounded(self) -> bool:
        return self._expires_at is not None

    def remaining(self) -> float | None:
        """Seconds left (may be negative), or None when unbounded."""
        if self._expires_at is None:
            return None
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        """True once the budget is spent."""
        return self._expires_at is not None and self._clock() >= self._expires_at


@dataclass(frozen=True, slots=True)
class CallPolicy:
    """Immutable per-call resilience policy.

    The default policy is the seed behaviour: no timeout, no deadline,
    no retries — so callers that never pass one see no change.
    """

    timeout: float | None = None
    deadline: float | None = None
    retries: int = 0
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 1.0  # 1.0 = full jitter, 0.0 = deterministic delays
    retryable_faultcodes: frozenset[str] = field(default=RETRYABLE_FAULTCODES)
    retry_transport_errors: bool = True
    propagate_deadline: bool = True

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise InvocationError("CallPolicy.retries must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise InvocationError("CallPolicy.jitter must be within [0, 1]")

    # -- derived helpers ---------------------------------------------------

    def start(self) -> Deadline:
        """The whole-call deadline clock for one invocation under this
        policy (unbounded when neither deadline nor timeout is set)."""
        if self.deadline is not None:
            return Deadline(self.deadline)
        if self.retries == 0 and self.timeout is not None:
            # single attempt: the per-attempt budget IS the call budget
            return Deadline(self.timeout)
        return Deadline.never()

    def attempt_budget(self, deadline: Deadline) -> float | None:
        """Seconds this attempt may spend: min(per-attempt timeout,
        remaining whole-call budget)."""
        remaining = deadline.remaining()
        if remaining is None:
            return self.timeout
        if self.timeout is None:
            return remaining
        return min(self.timeout, remaining)

    def is_retryable(self, error: BaseException) -> bool:
        """Whether spending retry budget on ``error`` is safe."""
        if isinstance(error, SoapFaultError):
            _, _, local = error.faultcode.rpartition(":")
            return local in self.retryable_faultcodes
        if isinstance(error, TransportError):
            return self.retry_transport_errors
        if isinstance(error, HttpError):
            # 503 without a parseable fault body is still a shed signal
            return error.status == 503
        return False

    def backoff_delay(self, retry_index: int, *, rng: random.Random | None = None) -> float:
        """Delay before retry number ``retry_index`` (0-based):
        exponential growth capped at ``backoff_max``, with full jitter
        (``delay * uniform(1-jitter, 1)``)."""
        delay = min(
            self.backoff_max,
            self.backoff_base * (self.backoff_multiplier ** retry_index),
        )
        if self.jitter:
            delay *= 1.0 - self.jitter * (rng or _JITTER_RNG).random()
        return delay

    def with_overrides(self, **changes: Any) -> "CallPolicy":
        """A copy with ``changes`` applied (policies are immutable)."""
        return replace(self, **changes)


#: The seed-equivalent policy: single attempt, unbounded, no retries.
DEFAULT_POLICY = CallPolicy()


@dataclass(slots=True)
class RetryState:
    """Per-invocation retry accounting, surfaced by the retry loop so
    callers (proxy stats, obs counters, tests) can see what happened."""

    attempts: int = 0
    retries: int = 0
    backoff_total_s: float = 0.0
    last_error: BaseException | None = None


def execute_with_policy(
    attempt: Callable[[Deadline], Any],
    policy: CallPolicy,
    *,
    rng: random.Random | None = None,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[int, BaseException, float], None] | None = None,
    state: RetryState | None = None,
) -> Any:
    """Run ``attempt`` under ``policy``'s retry state machine.

    ``attempt`` receives the whole-call :class:`Deadline` and must raise
    on failure.  Retryable failures (per :meth:`CallPolicy.is_retryable`)
    are retried up to ``policy.retries`` times with backoff, as long as
    the deadline has budget left; everything else — and the final
    exhausted failure — propagates to the caller unchanged.
    """
    state = state if state is not None else RetryState()
    deadline = policy.start()
    for retry_index in range(policy.retries + 1):
        state.attempts += 1
        try:
            return attempt(deadline)
        except BaseException as exc:
            state.last_error = exc
            if retry_index >= policy.retries or not policy.is_retryable(exc):
                raise
            delay = policy.backoff_delay(retry_index, rng=rng)
            remaining = deadline.remaining()
            if remaining is not None and delay >= remaining:
                # not enough budget to back off AND attempt again
                raise
            state.retries += 1
            state.backoff_total_s += delay
            if on_retry is not None:
                on_retry(retry_index, exc, delay)
            if delay > 0.0:
                sleep(delay)
    raise InvocationError("unreachable retry state")  # pragma: no cover
