"""SEDA-style event stages (Welsh et al., SOSP-18 — the paper's [5]).

A :class:`Stage` is a named queue drained by a dedicated thread pool.
The staged architecture of Figure 2 wires two of them together:
*protocol processing* (implicitly: the HTTP connection threads) and
*application processing* (an explicit Stage of worker threads executing
service operations).

Service-time accounting is a
:class:`~repro.obs.sketch.QuantileSketch` (log-bucketed, ~1% relative
error at any magnitude — the fixed ``LATENCY_BOUNDS_S`` histogram
quantized sub-millisecond stages into two buckets); give the stage a
:class:`~repro.obs.registry.MetricsRegistry` and its latency sketch is
created in the registry (name ``stage.<name>.service_time_s``) so it
shows up under ``/metrics``, alongside live ``stage.<name>.queue_depth``
/ ``.in_flight`` / ``.saturation`` gauges.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable

from repro.errors import PoolSaturatedError
from repro.obs.registry import MetricsRegistry
from repro.obs.sketch import QuantileSketch
from repro.server.threadpool import TaskFuture, ThreadPool


class StageStats:
    """Per-stage event accounting over a latency quantile sketch.

    Any instrument speaking ``record``/``mean`` works (the
    sketch and the fixed-bucket histogram both do).
    """

    __slots__ = ("events", "failures", "max_service_time", "per_kind", "service_time")

    def __init__(self, instrument: QuantileSketch | None = None) -> None:
        self.events = 0
        self.failures = 0
        self.max_service_time = 0.0
        self.per_kind: dict[str, int] = {}
        self.service_time = (
            instrument
            if instrument is not None
            else QuantileSketch(name="stage.service_time_s")
        )

    def record(self, kind: str, elapsed: float, *, failed: bool) -> None:
        """Account one handled event."""
        self.events += 1
        if failed:
            self.failures += 1
        self.service_time.record(elapsed)
        if elapsed > self.max_service_time:
            self.max_service_time = elapsed
        self.per_kind[kind] = self.per_kind.get(kind, 0) + 1

    @property
    def mean_service_time(self) -> float:
        return self.service_time.mean

    def snapshot(self) -> dict[str, Any]:
        """Counters as a plain dict."""
        return {
            "events": self.events,
            "failures": self.failures,
            "mean_service_time_s": self.mean_service_time,
            "max_service_time_s": self.max_service_time,
            "per_kind": dict(self.per_kind),
        }


class Stage:
    """One event-driven stage: submit work, get a TaskFuture back.

    ``max_queue`` bounds the stage's backlog (the SEDA load-shedding
    knob): a submit against a full queue raises
    :class:`~repro.errors.PoolSaturatedError`, counted in the
    ``stage.<name>.rejected`` registry counter so sheds are visible
    under ``/metrics``.
    """

    def __init__(
        self,
        name: str,
        workers: int,
        *,
        registry: MetricsRegistry | None = None,
        max_queue: int | None = None,
    ) -> None:
        self.name = name
        self._pool = ThreadPool(workers, name=f"stage-{name}", max_queue=max_queue)
        if registry is not None:
            instrument = registry.sketch(f"stage.{name}.service_time_s")
            self._rejected_counter = registry.counter(f"stage.{name}.rejected")
            self._queue_gauge = registry.gauge(f"stage.{name}.queue_depth")
            self._in_flight_gauge = registry.gauge(f"stage.{name}.in_flight")
            self._saturation_gauge = registry.gauge(f"stage.{name}.saturation")
        else:
            instrument = None
            self._rejected_counter = None
            self._queue_gauge = None
            self._in_flight_gauge = None
            self._saturation_gauge = None
        self._observe_tick = itertools.count()
        self.stats = StageStats(instrument)

    @property
    def workers(self) -> int:
        return self._pool.workers

    @property
    def max_queue(self) -> int | None:
        return self._pool.max_queue

    def queue_depth(self) -> int:
        """Events waiting for a worker right now (approximate)."""
        return self._pool.queue_depth()

    def submit(
        self, handler: Callable[..., Any], /, *args: Any, kind: str = "event", **kwargs: Any
    ) -> TaskFuture:
        """Queue one event; returns its completion future.

        Raises :class:`~repro.errors.PoolSaturatedError` when the stage
        queue is at its bound.
        """
        try:
            future = self._pool.submit(self._timed, handler, kind, args, kwargs)
        except PoolSaturatedError:
            if self._rejected_counter is not None:
                self._rejected_counter.inc()
            raise
        self._observe_queue()
        return future

    def pool_stats(self) -> dict[str, int]:
        """The backing thread pool's counters."""
        return self._pool.stats.snapshot()

    def shutdown(self) -> None:
        """Stop the stage's worker pool."""
        self._pool.shutdown()

    def __enter__(self) -> "Stage":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def _observe_queue(self) -> None:
        """Refresh the live queue-depth and saturation gauges.

        Sampled: every 8th submit.  ``queue_depth()`` takes the queue's
        own mutex — the lock all workers contend on for work — so a
        per-submit poll adds contention exactly where the stage is
        hottest, for gauge freshness nobody can observe.
        """
        if self._queue_gauge is None:
            return
        if next(self._observe_tick) & 0x7:
            return
        depth = self._pool.queue_depth()
        self._queue_gauge.set(depth)
        bound = self._pool.max_queue
        if bound:
            self._saturation_gauge.set(depth / bound)

    def _timed(self, handler: Callable[..., Any], kind: str, args: tuple, kwargs: dict) -> Any:
        # the queue-depth/saturation gauges refresh on submit only:
        # qsize() takes the queue's own mutex — the lock every worker
        # already contends on to pull work — so polling it from worker
        # threads per task doubles traffic on the hottest lock in the
        # stage for no added freshness
        if self._in_flight_gauge is not None:
            self._in_flight_gauge.add(1)
        start = time.perf_counter()
        try:
            result = handler(*args, **kwargs)
        except BaseException:
            self.stats.record(kind, time.perf_counter() - start, failed=True)
            raise
        finally:
            if self._in_flight_gauge is not None:
                self._in_flight_gauge.add(-1)
        self.stats.record(kind, time.perf_counter() - start, failed=False)
        return result
