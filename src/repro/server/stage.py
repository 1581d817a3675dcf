"""SEDA-style event stages (Welsh et al., SOSP-18 — the paper's [5]).

A :class:`Stage` is a named queue drained by a dedicated thread pool.
The staged architecture of Figure 2 wires two of them together:
*protocol processing* (implicitly: the HTTP connection threads) and
*application processing* (an explicit Stage of worker threads executing
service operations).

:meth:`Stage.submit` queues one event (the evented backend's handler
stage); :meth:`Stage.run_batch` takes a whole pack — SEDA's batching
controller applied to Figure 2's fan-out: one wake-up per pack that
cascades over workers, not one queue item per entry.

A stage reports its load from one place, the
:class:`~repro.obs.registry.MetricsRegistry` it is given (its own when
given none): ``stage.<name>.service_time_s`` (a quantile sketch whose
count is the events the stage ran), ``.failures``, ``.rejected``, the
live ``.queue_depth`` / ``.in_flight`` / ``.saturation`` gauges, and
``.handoff_s``: the smallest lag measured from :meth:`Stage.run_batch`
to a worker's first claim of the batch (:attr:`Stage.handoff_s`), what
handing a pack over costs at the least.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Any, Callable

from repro.errors import PoolSaturatedError, ServiceError
from repro.obs.registry import MetricsRegistry
from repro.server.threadpool import TaskFuture, ThreadPool


class _Batch:
    """One pack's admitted items on a stage; guarded by the stage lock."""

    __slots__ = ("items", "settle", "claimed", "waking", "handed")

    def __init__(self, items: list[tuple], settle: Callable[..., None]) -> None:
        self.items = items
        self.settle = settle
        self.claimed = 0  # items[:claimed] have a worker, or were skipped
        self.waking = True  # a wake-up ticket is queued, not yet taken
        self.handed = time.perf_counter()


class Stage:
    """One event-driven stage: submit an event or run a batch.

    ``max_queue`` bounds the backlog (the SEDA load-shedding knob).
    What it sheds — a submit raising :class:`~repro.errors.PoolSaturatedError`,
    a batch item handed back — counts in ``stage.<name>.rejected``.
    Every instrument is bound here, once; the per-event path records
    into them without a lock.
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
        self._lock = threading.Lock()
        self._admitted = 0  # batch items admitted and not yet finished
        # the smallest run_batch -> first-claim lag; None until a batch
        # was claimed.  Written under the lock, read without it.
        self.handoff_s: float | None = None
        self.registry = registry if registry is not None else MetricsRegistry()
        self._service_time = self.registry.sketch(f"stage.{name}.service_time_s")
        self._failures = self.registry.counter(f"stage.{name}.failures")
        self._rejected = self.registry.counter(f"stage.{name}.rejected")
        self._queue_depth = self.registry.gauge(f"stage.{name}.queue_depth")
        self._in_flight = self.registry.gauge(f"stage.{name}.in_flight")
        self._saturation = self.registry.gauge(f"stage.{name}.saturation")
        self._handoff = self.registry.gauge(f"stage.{name}.handoff_s")
        self._observe_tick = itertools.count()

    @property
    def workers(self) -> int:
        return self._pool.workers

    def submit(self, handler: Callable[..., Any], /, *args: Any, **kwargs: Any) -> TaskFuture:
        """Queue one event; returns its completion future.

        Raises :class:`~repro.errors.PoolSaturatedError` when the stage
        queue is at its bound.
        """
        try:
            future = self._pool.submit(self._timed, handler, args, kwargs)
        except PoolSaturatedError:
            self._rejected.inc()
            raise
        # Sampled: a poll is a qsize() and two gauge writes, on the
        # per-event path, for no freshness a scrape would see.
        if not next(self._observe_tick) & 0x7:
            self._observe_queue(self._pool.queue_depth())
        return future

    def run_batch(self, items: list[tuple], settle: Callable[..., None]) -> list[tuple]:
        """Hand one pack's items to the stage as one batch; returns the
        items it could not admit, in order, for the caller to shed.

        Items are opaque to the stage.  It admits one item per idle
        worker plus one per free queue slot (``max_queue`` counts items,
        not wake-up tickets).  Workers call ``settle(item)``; an item
        still unclaimed when the stage shuts down gets ``settle(item,
        "shut down")``.  Must not raise.
        """
        bound = self._pool.max_queue
        with self._lock:
            room = len(items)
            if bound is not None:  # idle workers + free queue slots
                room = bound + self.workers - self._admitted
            admitted = items[: max(room, 0)]
            self._admitted += len(admitted)
            waiting = self._admitted - self.workers
        shed = items[len(admitted):]
        if shed:
            self._rejected.inc(len(shed))
        self._observe_queue(max(waiting, 0))
        if admitted:
            self._wake(_Batch(admitted, settle))
        return shed

    def shutdown(self) -> None:
        """Stop the stage's worker pool; unclaimed batch items settle as shut down."""
        self._pool.shutdown()

    def __enter__(self) -> "Stage":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def _observe_queue(self, depth: int) -> None:
        """Refresh the live queue-depth and saturation gauges."""
        self._queue_depth.set(depth)
        bound = self._pool.max_queue
        if bound:
            self._saturation.set(depth / bound)

    # -- batches -----------------------------------------------------------

    def _wake(self, batch: _Batch) -> None:
        """Queue one wake-up ticket for ``batch``.  A ticket the pool
        refuses or cancels (shutdown) leaves nobody to claim the rest."""
        try:
            ticket = self._pool.submit_admitted(self._drain, batch)
        except ServiceError:  # the pool is shut down
            self._abandon(batch)
            return
        ticket.add_done_callback(functools.partial(self._ticket_done, batch))

    def _ticket_done(self, batch: _Batch, ticket: TaskFuture) -> None:
        if ticket.exception(timeout=0) is not None:  # cancelled at shutdown
            self._abandon(batch)

    def _abandon(self, batch: _Batch) -> None:
        with self._lock:
            rest = batch.items[batch.claimed:]
            batch.claimed = len(batch.items)
            self._admitted -= len(rest)
        for item in rest:
            batch.settle(item, "shut down")

    def _drain(self, batch: _Batch) -> None:
        """One wake-up ticket, on a worker.  Claim the next item; while
        some stay unclaimed, wake at most one more worker — before
        running, so blocking items still overlap; run it; claim again."""
        items = batch.items
        with self._lock:
            batch.waking = False
        while True:
            with self._lock:
                if batch.claimed == len(items):
                    return
                if not batch.claimed:  # the batch's first claim
                    lag = time.perf_counter() - batch.handed
                    if self.handoff_s is None or lag < self.handoff_s:
                        self.handoff_s = lag
                        self._handoff.set(lag)
                item = items[batch.claimed]
                batch.claimed += 1
                wake = not batch.waking and batch.claimed < len(items)
                batch.waking |= wake
            if wake:
                self._wake(batch)
            try:
                self._timed(batch.settle, (item,), {})
            finally:
                with self._lock:
                    self._admitted -= 1

    def _timed(self, handler: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        # the queue-depth/saturation gauges refresh on submit and batch
        # admission only, not once more per task on the workers
        self._in_flight.add(1)
        start = time.perf_counter()
        try:
            return handler(*args, **kwargs)
        except BaseException:
            self._failures.inc()
            raise
        finally:
            self._in_flight.add(-1)
            self._service_time.record(time.perf_counter() - start)
