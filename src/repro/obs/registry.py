"""The one metrics model: counters, gauges, quantile sketches.

Every layer of a server counts into one :class:`MetricsRegistry` —
the HTTP drivers, the SOAP endpoint, the service container and the
application stage — and the admin ``/metrics`` route renders one
snapshot of it.  Per-operation latency and faults are two ordinary
instruments per deployed operation, bound by the service container.  A component binds its instruments once, at
construction; nothing on the request path looks a name up.  Each fact
is counted once: there is no second, private bookkeeping object beside
the registry.

Instruments are cheap, thread-safe, and dependency-free, so they can
live on the request hot path.  :class:`~repro.obs.sketch.QuantileSketch`
is the one distribution instrument (latencies, entries per message).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from repro.obs.sketch import QuantileSketch


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        """The current count."""
        return self._value


class Gauge:
    """A point-in-time value (queue depth, worker count, ...).

    ``set`` is a single attribute store (atomic under the GIL, last
    writer wins — exactly gauge semantics) and ``add`` appends a delta
    to a pending deque folded on read, so neither blocks on a lock:
    in-flight gauges sit on the per-task stage hot path, where a
    contended lock costs a thread park/unpark per event.
    """

    __slots__ = ("name", "_value", "_pending", "_lock")

    #: pending ``add`` deltas buffered before an inline fold
    MAX_PENDING = 256

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._value = 0.0
        self._pending: "deque[float]" = deque()
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self._value = value

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta`` (use for in-flight counts)."""
        pending = self._pending
        pending.append(delta)
        if len(pending) >= self.MAX_PENDING:
            self._fold()

    def _fold(self) -> None:
        with self._lock:
            pending = self._pending
            value = self._value
            while True:
                try:
                    value += pending.popleft()
                except IndexError:
                    break
            self._value = value

    @property
    def value(self) -> float:
        self._fold()
        return self._value

    def snapshot(self) -> float:
        """The current value."""
        return self.value


class MetricsRegistry:
    """Named instruments, created on first use, snapshot as one dict.

    ``registry.counter("http.requests")`` returns the same
    :class:`Counter` from every thread.  Beside counters and gauges the
    registry hosts :class:`~repro.obs.sketch.QuantileSketch` instruments
    (``registry.sketch(name)``) — the log-bucketed quantile store
    phase/stage/operation latencies and pack degrees record into.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._sketches: dict[str, QuantileSketch] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
        return instrument

    def sketch(
        self, name: str, *, alpha: float | None = None
    ) -> QuantileSketch:
        """Get or create the quantile sketch ``name`` (``alpha`` — the
        relative-error bound — is fixed at creation)."""
        with self._lock:
            instrument = self._sketches.get(name)
            if instrument is None:
                kwargs = {} if alpha is None else {"alpha": alpha}
                instrument = self._sketches[name] = QuantileSketch(
                    name=name, **kwargs
                )
        return instrument

    def snapshot(self) -> dict[str, Any]:
        """Every instrument's state, grouped by kind, names sorted."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            sketches = dict(self._sketches)
        return {
            "counters": {name: counters[name].snapshot() for name in sorted(counters)},
            "gauges": {name: gauges[name].snapshot() for name in sorted(gauges)},
            "sketches": {
                name: sketches[name].snapshot() for name in sorted(sketches)
            },
        }
