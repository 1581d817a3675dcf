"""Unified metrics primitives: counters, gauges, histograms, registry.

Before this module existed the repo grew two independent fixed-bucket
histogram implementations (one beside the pack-metrics handler and the
mean/max accounting inside ``repro.server.stage.StageStats``) and a
scatter of ad-hoc counter attributes guarded by per-object locks.  The
:class:`MetricsRegistry` absorbs them: every layer that wants a metric
asks the registry for a named instrument, and the admin ``/metrics``
route renders one coherent snapshot of the whole process.

Instruments are cheap, thread-safe, and dependency-free, so they can
live on the request hot path.  ``server.handlers.PackMetricsHandler``
and ``server.stage`` take their :class:`Histogram` from here.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import deque
from typing import Any, Callable

from repro.obs.rollup import DEFAULT_HALF_LIFE_S, ObsRollup, rollup_key
from repro.obs.sketch import QuantileSketch

# Pack-degree style bounds: entries carried per message (Figure 5-7 M sweep).
DEFAULT_BOUNDS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

# Stage/phase latency bounds in *seconds*: sub-millisecond parse phases up
# to multi-second packed executions.  Floats, unlike the original
# pack-count integer bounds.
LATENCY_BOUNDS_S: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def _bound_label(bound: float) -> str:
    """Render ``1`` as ``1`` and ``0.005`` as ``0.005`` (no trailing .0).

    Always positional notation: ``%g`` would render 1e-05 in scientific
    form, and a ``le="1e-05"`` label sorts *after* ``le="0.00025"`` in
    any string-ordered exposition diff, making the bucket series look
    non-monotonic.  Fixed-point keeps the rendered series in the same
    order as the numeric bounds.
    """
    text = f"{bound:.12f}".rstrip("0").rstrip(".")
    return text if text else "0"


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


class Histogram:
    """Fixed-bucket counting histogram (bucket upper bounds inclusive).

    Bounds may be floats (stage latencies are sub-second floats) and the
    bucket lookup is a :func:`bisect.bisect_left` over the sorted bounds
    rather than a linear scan, so wide latency histograms cost the same
    as narrow pack-degree ones.  ``record`` is thread-safe.
    """

    __slots__ = ("name", "bounds", "counts", "overflow", "total", "sum", "_lock")

    def __init__(
        self, bounds: tuple[float, ...] = DEFAULT_BOUNDS, *, name: str = ""
    ) -> None:
        if not bounds or any(b > c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram bounds must be non-empty and sorted: {bounds!r}")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.total = 0
        self.sum = 0.0
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        """Count one observation into its bucket."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.total += 1
            self.sum += value
            if index < len(self.counts):
                self.counts[index] += 1
            else:
                self.overflow += 1

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def snapshot(self) -> dict:
        """Total/mean/sum/bucket counts as a plain dict.

        ``bounds`` (the numeric bucket upper bounds, in order) rides
        along so renderers that need cumulative buckets — the
        Prometheus exposition — can rebuild them without reaching into
        instrument internals.
        """
        with self._lock:
            counts = list(self.counts)
            overflow = self.overflow
            total = self.total
            total_sum = self.sum
            mean = self.mean
        buckets = {
            f"<={_bound_label(bound)}": count
            for bound, count in zip(self.bounds, counts)
        }
        buckets[f">{_bound_label(self.bounds[-1])}"] = overflow
        return {
            "total": total,
            "mean": mean,
            "sum": total_sum,
            "buckets": buckets,
            "bounds": list(self.bounds),
        }


class MetricsRegistry:
    """Named instruments, created on first use, snapshot as one dict.

    ``registry.counter("http.requests")`` returns the same
    :class:`Counter` from every thread; histogram ``bounds`` apply only
    on first creation.  Beyond the three classic instrument kinds the
    registry also hosts

    * :class:`~repro.obs.sketch.QuantileSketch` instruments
      (``registry.sketch(name)``) — the log-bucketed quantile store
      phase/stage/call latencies record into;
    * :class:`~repro.obs.rollup.ObsRollup` tables
      (``registry.rollup(service, operation)``) — per-target latency
      EWMA + error-rate EWMAs + in-flight gauge, the feed for hedging
      thresholds and live SLO checks.

    ``clock`` (monotonic) is threaded into every rollup so tests can
    drive EWMAs deterministically.
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sketches: dict[str, QuantileSketch] = {}
        self._rollups: dict[tuple[str, str], ObsRollup] = {}
        self._clock = clock
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

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BOUNDS
    ) -> Histogram:
        """Get or create the histogram ``name`` (bounds fixed at creation)."""
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(bounds, name=name)
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

    def rollup(
        self,
        service: str,
        operation: str,
        *,
        half_life_s: float = DEFAULT_HALF_LIFE_S,
    ) -> ObsRollup:
        """Get or create the per-target rollup for ``(service,
        operation)``; ``half_life_s`` applies only on first creation.

        This is the API adaptive consumers read: a hedging policy asks
        ``registry.rollup(ns, op).latency_quantile(0.95)`` for its
        fire threshold, an AIMD limiter watches
        ``.error_rate_by_class["shed"]``.
        """
        key = (service, operation)
        with self._lock:
            instrument = self._rollups.get(key)
            if instrument is None:
                instrument = self._rollups[key] = ObsRollup(
                    service,
                    operation,
                    half_life_s=half_life_s,
                    clock=self._clock,
                )
        return instrument

    def rollups(self) -> list[ObsRollup]:
        """Every rollup created so far, sorted by (service, operation)."""
        with self._lock:
            return [self._rollups[key] for key in sorted(self._rollups)]

    def snapshot(self) -> dict[str, Any]:
        """Every instrument's state, grouped by kind, names sorted."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            sketches = dict(self._sketches)
            rollups = dict(self._rollups)
        return {
            "counters": {name: counters[name].snapshot() for name in sorted(counters)},
            "gauges": {name: gauges[name].snapshot() for name in sorted(gauges)},
            "histograms": {
                name: histograms[name].snapshot() for name in sorted(histograms)
            },
            "sketches": {
                name: sketches[name].snapshot() for name in sorted(sketches)
            },
            "rollups": {
                rollup_key(*key): rollups[key].snapshot()
                for key in sorted(rollups)
            },
        }
