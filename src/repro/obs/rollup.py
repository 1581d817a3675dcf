"""Per-(service, operation) telemetry rollups: EWMAs + sketch + gauge.

An operator asking "is *this* operation slow or shedding right now"
needs a *current* number per call target, not a since-boot histogram.
An :class:`ObsRollup` is that number factory: one per ``(service
namespace, operation)`` the server executes, holding

* a latency EWMA with configurable half-life (recent calls dominate,
  ancient history decays away) plus a :class:`QuantileSketch` for
  percentile questions;
* error-rate EWMAs split by fault class — ``error`` (any fault),
  ``retryable`` (the fault guarantees the work did not run),
  ``shed`` (``Server.Busy``) and ``timeout`` (``Server.Timeout``) —
  each an exponentially-weighted fraction in [0, 1];
* an in-flight count (concurrent executions right now).

Time never comes from the wall: every update passes through the
injected monotonic clock, so tests drive rollups deterministically and
NTP slew cannot corrupt a decay.  Obtain rollups through
``MetricsRegistry.rollup(service, operation)`` so they appear in the
``/metrics`` snapshot next to every other instrument.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from repro.obs.sketch import QuantileSketch

#: Default EWMA half-life: a call 30 s ago carries half the weight of a
#: call now — long enough to smooth bursts, short enough that a rate
#: tracks a regime change within a minute.
DEFAULT_HALF_LIFE_S = 30.0

#: Pending accounting events buffered before a writer folds inline;
#: readers always fold first, so this caps staleness and memory, never
#: correctness (events carry their own timestamps).
MAX_PENDING_EVENTS = 256

#: Fault classes a rollup tracks separately (besides the overall rate).
FAULT_CLASSES = ("retryable", "shed", "timeout")


class Ewma:
    """Exponentially-weighted moving average with a time-based decay.

    Unlike the textbook per-sample ``alpha``, the decay here is
    computed from *elapsed time*: ``alpha = 1 - 0.5 ** (dt /
    half_life)``, so irregular arrival rates do not distort the
    average — ten updates in one millisecond move the value about as
    much as one update would.  The first observation seeds the value
    directly.
    """

    __slots__ = ("half_life_s", "_value", "_last_at", "_seeded")

    def __init__(self, half_life_s: float = DEFAULT_HALF_LIFE_S) -> None:
        if half_life_s <= 0:
            raise ValueError(f"half_life_s must be positive: {half_life_s!r}")
        self.half_life_s = half_life_s
        self._value = 0.0
        self._last_at = 0.0
        self._seeded = False

    def update(self, value: float, now: float) -> float:
        """Fold ``value`` observed at monotonic time ``now``; returns
        the new average."""
        return self.update_with_gain(value, now, self.gain(now))

    def gain(self, now: float) -> float:
        """The decay gain one update at ``now`` would apply.

        Exposed so a caller updating several same-half-life EWMAs in
        lockstep (:meth:`ObsRollup.observe`) can price the ``0.5 **
        (dt / half_life)`` pow once instead of per average.
        """
        dt = max(now - self._last_at, 0.0)
        alpha = 1.0 - 0.5 ** (dt / self.half_life_s)
        # a zero-dt burst still has to move: floor the gain so
        # back-to-back updates converge instead of freezing
        return max(alpha, 1.0 / 64.0)

    def update_with_gain(self, value: float, now: float, gain: float) -> float:
        """:meth:`update` with a precomputed :meth:`gain` value."""
        if not self._seeded:
            self._value = value
            self._seeded = True
        else:
            self._value += gain * (value - self._value)
        self._last_at = now
        return self._value

    @property
    def value(self) -> float:
        return self._value

    @property
    def seeded(self) -> bool:
        return self._seeded


class ObsRollup:
    """Live telemetry for one ``(service, operation)`` target.

    ``observe`` accounts one finished execution; ``begin``/``done``
    bracket the in-flight gauge (kept separate so shed entries — which
    never began executing — can be observed without underflowing the
    gauge).  All methods are thread-safe.

    The accounting methods are *lock-free*: each appends one event to a
    pending deque (atomic under the GIL) and the EWMA/sketch folding is
    deferred to readers — the rollup sits on the per-entry execute hot
    path of every stage worker at once, and a contended lock there
    costs a thread park/unpark per observation.  A writer that crosses
    ``MAX_PENDING_EVENTS`` folds inline, bounding the queue.  Events
    carry their observation timestamp, so deferral never distorts the
    time-based EWMA decay.
    """

    __slots__ = (
        "service",
        "operation",
        "half_life_s",
        "latency_ewma",
        "latency_sketch",
        "error_ewma",
        "class_ewmas",
        "_calls",
        "_faults",
        "_in_flight",
        "_pending",
        "_clock",
        "_lock",
    )

    def __init__(
        self,
        service: str,
        operation: str,
        *,
        half_life_s: float = DEFAULT_HALF_LIFE_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.service = service
        self.operation = operation
        self.half_life_s = half_life_s
        self.latency_ewma = Ewma(half_life_s)
        self.latency_sketch = QuantileSketch(
            name=f"rollup.{service}#{operation}.latency_s"
        )
        self.error_ewma = Ewma(half_life_s)
        self.class_ewmas = {name: Ewma(half_life_s) for name in FAULT_CLASSES}
        self._calls = 0
        self._faults = 0
        self._in_flight = 0
        # (in_flight_delta, elapsed_s | None, fault_class, now | None);
        # drained in arrival order by _fold_locked
        self._pending: deque[tuple] = deque()
        self._clock = clock
        self._lock = threading.Lock()

    # -- accounting ----------------------------------------------------

    def begin(self) -> None:
        """One execution entered this target."""
        self._push((1, None, None, None))

    def done(self) -> None:
        """One execution left this target."""
        self._push((-1, None, None, None))

    def _push(self, event: tuple) -> None:
        pending = self._pending
        pending.append(event)
        if len(pending) >= MAX_PENDING_EVENTS:
            self._fold()

    def _fold(self) -> None:
        """Drain pending events into the EWMAs/counters, in order."""
        with self._lock:
            self._fold_locked()

    def _fold_locked(self) -> None:
        pending = self._pending
        latency_ewma = self.latency_ewma
        while True:
            try:
                delta, elapsed_s, fault_class, now = pending.popleft()
            except IndexError:
                return
            self._in_flight += delta
            if now is None:  # a pure begin/done bracket
                continue
            failed = fault_class is not None
            retryable = fault_class in ("retryable", "shed", "timeout")
            self._calls += 1
            if failed:
                self._faults += 1
            # every EWMA here shares one half-life and moves in
            # lockstep, so the pow() behind the decay is priced once
            gain = latency_ewma.gain(now)
            latency_ewma.update_with_gain(elapsed_s, now, gain)
            self.error_ewma.update_with_gain(1.0 if failed else 0.0, now, gain)
            self.class_ewmas["retryable"].update_with_gain(
                1.0 if retryable else 0.0, now, gain
            )
            self.class_ewmas["shed"].update_with_gain(
                1.0 if fault_class == "shed" else 0.0, now, gain
            )
            self.class_ewmas["timeout"].update_with_gain(
                1.0 if fault_class == "timeout" else 0.0, now, gain
            )
            self.latency_sketch.record(elapsed_s)

    def observe(
        self, elapsed_s: float, fault_class: str | None = None
    ) -> None:
        """Account one finished call.

        ``fault_class``: ``None`` for success, else one of
        ``"fatal"``/``"retryable"``/``"shed"``/``"timeout"`` (sheds and
        timeouts are retryable and count into that EWMA too).
        """
        self._push((0, elapsed_s, fault_class, self._clock()))

    def complete(
        self, elapsed_s: float, fault_class: str | None = None
    ) -> None:
        """:meth:`done` + :meth:`observe` as one event.

        The per-entry hot path in ``SoapServer._run`` pairs every
        ``begin`` with a completion; carrying the in-flight decrement on
        the observation event halves its event traffic.
        """
        self._push((-1, elapsed_s, fault_class, self._clock()))

    # -- queries -------------------------------------------------------

    @property
    def calls(self) -> int:
        """Total observed calls (pending events folded first)."""
        self._fold()
        return self._calls

    @property
    def faults(self) -> int:
        """Total observed faults (pending events folded first)."""
        self._fold()
        return self._faults

    @property
    def in_flight(self) -> int:
        self._fold()
        return self._in_flight

    def latency_s(self) -> float:
        """The current latency EWMA in seconds."""
        self._fold()
        return self.latency_ewma.value

    def latency_quantile(self, q: float) -> float:
        """Latency at quantile ``q`` from the rollup's sketch."""
        self._fold()
        return self.latency_sketch.quantile(q)

    def error_rate(self) -> float:
        """The overall error-rate EWMA in [0, 1]."""
        self._fold()
        return self.error_ewma.value

    def snapshot(self) -> dict:
        """JSON-friendly view: EWMAs, quantiles, counters, gauge."""
        with self._lock:
            self._fold_locked()
            calls = self._calls
            faults = self._faults
            in_flight = self._in_flight
            latency = self.latency_ewma.value
            error = self.error_ewma.value
            classes = {
                name: ewma.value for name, ewma in self.class_ewmas.items()
            }
        return {
            "service": self.service,
            "operation": self.operation,
            "calls": calls,
            "faults": faults,
            "in_flight": in_flight,
            "latency_ewma_s": latency,
            "latency_p50_s": self.latency_sketch.quantile(0.5),
            "latency_p99_s": self.latency_sketch.quantile(0.99),
            "error_rate": error,
            "error_rate_by_class": classes,
            "half_life_s": self.half_life_s,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ObsRollup({self.service}#{self.operation}, "
            f"ewma={self.latency_s() * 1e3:.3f} ms, "
            f"err={self.error_rate():.3f})"
        )


def rollup_key(service: str, operation: str) -> str:
    """The snapshot key for one target (``namespace#operation``)."""
    return f"{service}#{operation}"
