"""SEDA-style event stages (Welsh et al., SOSP-18 — the paper's [5]).

A :class:`Stage` is one unit, as in SEDA: a named event queue, the
worker threads that drain it, its bound and its batch accounting, all
under one lock.  The staged architecture of Figure 2 wires two of them
together: *protocol processing* (implicitly: the HTTP connection
threads) and *application processing* (an explicit Stage of worker
threads executing service operations).

:meth:`Stage.submit` queues one event (the evented backend's handler
stage); :meth:`Stage.run_batch` takes a whole pack — SEDA's batching
controller applied to Figure 2's fan-out: one wake-up per pack that
cascades over workers, not one queue item per entry.  A wake-up is the
batch itself, queued past the bound: its items were admitted by the
stage's own count.

The queue is a ``queue.SimpleQueue``, whose blocking ``get`` waits in
C; the bound is checked under the stage's lock.  A :class:`TaskFuture`
builds its ``Event`` only for a caller that waits.

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

import itertools
import queue
import threading
import time
from concurrent.futures import CancelledError
from typing import Any, Callable

from repro.errors import PoolSaturatedError, ServiceError
from repro.obs.registry import MetricsRegistry


class TaskFuture:
    """Completion handle for one submitted event.

    Its :class:`threading.Event` is built by the first caller that has
    to wait (:meth:`result`, :meth:`exception`): the evented driver
    never waits on its futures.
    """

    __slots__ = ("_done", "_event", "_result", "_exception", "_lock")

    def __init__(self) -> None:
        self._done = False
        self._event: threading.Event | None = None
        self._result: Any = None
        self._exception: BaseException | None = None
        self._lock = threading.Lock()

    def set_result(self, value: Any) -> None:
        """Complete the task with a value."""
        self._complete(value, None)

    def set_exception(self, exc: BaseException) -> None:
        """Complete the task with an error."""
        self._complete(None, exc)

    def _complete(self, value: Any, exc: BaseException | None) -> None:
        with self._lock:
            self._result = value
            self._exception = exc
            self._done = True
            event = self._event
        # a waiter that found the future pending built ``event`` under
        # the lock; one that comes later finds it done and never waits
        if event is not None:
            event.set()

    def done(self) -> bool:
        """True once a result or exception is set."""
        with self._lock:
            return self._done

    def _outcome(self, timeout: float | None) -> tuple[Any, BaseException | None]:
        """``(value, error)`` once done; :class:`TimeoutError` past ``timeout``."""
        with self._lock:
            if self._done:
                return self._result, self._exception
            if self._event is None:
                self._event = threading.Event()
            event = self._event
        if not event.wait(timeout):
            raise TimeoutError("task did not complete in time")
        with self._lock:
            return self._result, self._exception

    def result(self, timeout: float | None = None) -> Any:
        """The task's value; re-raises its exception."""
        value, exc = self._outcome(timeout)
        if exc is not None:
            raise exc
        return value

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The task's exception, or None; waits up to ``timeout``."""
        return self._outcome(timeout)[1]


class CompletionLatch:
    """Count-down latch: the mechanism that lets the sleeping protocol
    thread of Figure 2 be "waked up to complete generating the packet"
    once every application-stage worker has finished."""

    def __init__(self, count: int) -> None:
        if count < 0:
            raise ServiceError("latch count must be >= 0")
        self._count = count
        self._condition = threading.Condition()

    def count_down(self) -> None:
        """Decrement; at zero, wake every waiter."""
        with self._condition:
            if self._count > 0:
                self._count -= 1
                if self._count == 0:
                    self._condition.notify_all()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the count reaches zero; False on timeout."""
        with self._condition:
            if self._count == 0:
                return True
            return self._condition.wait_for(lambda: self._count == 0, timeout)


class _Batch:
    """One pack's admitted items on a stage, and its wake-up on the
    stage queue; guarded by the stage lock."""

    __slots__ = ("items", "settle", "claimed", "waking", "handed")

    def __init__(self, items: list[tuple], settle: Callable[..., None]) -> None:
        self.items = items
        self.settle = settle
        self.claimed = 0  # items[:claimed] have a worker, or were skipped
        self.waking = False  # queued as a wake-up, not yet taken
        self.handed = time.perf_counter()


_SHUTDOWN = object()


class Stage:
    """One event-driven stage: submit an event or run a batch.

    ``max_queue`` bounds the backlog (the SEDA load-shedding knob);
    ``None`` leaves it unbounded.  What it sheds — a submit raising
    :class:`~repro.errors.PoolSaturatedError`, a batch item handed
    back — counts in ``stage.<name>.rejected``.  Every instrument is
    bound here, once; the per-event path records into them without a
    lock.
    """

    def __init__(
        self,
        name: str,
        workers: int,
        *,
        registry: MetricsRegistry | None = None,
        max_queue: int | None = None,
    ) -> None:
        if workers < 1:
            raise ServiceError("stage needs at least one worker")
        if max_queue is not None and max_queue < 1:
            raise ServiceError("max_queue must be >= 1 (or None for unbounded)")
        self.name = name
        self.max_queue = max_queue
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._shutdown = False
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
        self._threads = [
            threading.Thread(target=self._work, name=f"stage-{name}-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def workers(self) -> int:
        return len(self._threads)

    def queue_depth(self) -> int:
        """Events and wake-ups waiting for a worker right now (approximate)."""
        return self._queue.qsize()

    def submit(self, handler: Callable[..., Any], /, *args: Any, **kwargs: Any) -> TaskFuture:
        """Queue one event; returns its completion future.

        Raises :class:`~repro.errors.PoolSaturatedError` when the stage
        queue is at its bound — the caller decides how to shed (the SOAP
        stack maps it to a ``Server.Busy`` fault + HTTP 503) — and
        :class:`~repro.errors.ServiceError` once the stage is shut down.
        """
        future = TaskFuture()
        bound = self.max_queue
        # Check and enqueue in one critical section: the bound holds
        # under concurrent submitters, and an event never lands behind
        # shutdown()'s drain (put on the unbounded queue does not block).
        with self._lock:
            if self._shutdown:
                raise ServiceError(f"stage '{self.name}' is shut down")
            full = bound is not None and self._queue.qsize() >= bound
            if not full:
                self._queue.put((future, handler, args, kwargs))
        if full:
            self._rejected.inc()
            raise PoolSaturatedError(
                f"stage '{self.name}' queue is full ({bound} tasks waiting)"
            )
        # Sampled: a poll is a qsize() and two gauge writes, on the
        # per-event path, for no freshness a scrape would see.
        if not next(self._observe_tick) & 0x7:
            self._observe_queue(self._queue.qsize())
        return future

    def run_batch(self, items: list[tuple], settle: Callable[..., None]) -> list[tuple]:
        """Hand one pack's items to the stage as one batch; returns the
        items it could not admit, in order, for the caller to shed.

        Items are opaque to the stage.  It admits one item per idle
        worker plus one per free queue slot (``max_queue`` counts items,
        not wake-ups).  Workers call ``settle(item)``; an item still
        unclaimed when the stage shuts down gets ``settle(item, "shut
        down")``.  Must not raise.
        """
        bound = self.max_queue
        with self._lock:
            room = len(items)
            if bound is not None:  # idle workers + free queue slots
                room = bound + self.workers - self._admitted
            batch = _Batch(items[: max(room, 0)], settle)
            self._admitted += len(batch.items)
            waiting = self._admitted - self.workers
            stranded = bool(batch.items) and not self._wake_locked(batch)
        shed = items[len(batch.items):]
        if shed:
            self._rejected.inc(len(shed))
        self._observe_queue(max(waiting, 0))
        if stranded:
            self._abandon(batch)
        return shed

    def shutdown(self, *, join_timeout: float = 5.0) -> None:
        """Cancel what is queued, then join every worker; idempotent.

        A queued event fails its future with :class:`CancelledError`, so
        no ``result()`` caller blocks forever; a queued batch's unclaimed
        items settle as "shut down".  Work already running may finish;
        the joins share one ``join_timeout`` in all.
        """
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        # Drain what is queued.  Workers may race us for items; whichever
        # side wins, every future completes and every batch item settles
        # exactly once (a batch's claims are counted under the lock).
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item.__class__ is _Batch:
                self._abandon(item)
            else:
                item[0].set_exception(
                    CancelledError(f"stage '{self.name}' shut down before task started")
                )
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        deadline = time.monotonic() + join_timeout
        for thread in self._threads:
            thread.join(max(deadline - time.monotonic(), 0.0))

    def __enter__(self) -> "Stage":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def _observe_queue(self, depth: int) -> None:
        """Refresh the live queue-depth and saturation gauges."""
        self._queue_depth.set(depth)
        bound = self.max_queue
        if bound:
            self._saturation.set(depth / bound)

    # -- workers -----------------------------------------------------------

    def _work(self) -> None:
        """One worker: take an event or a batch wake-up off the queue."""
        get = self._queue.get
        while True:
            item = get()
            if item is _SHUTDOWN:
                return
            if item.__class__ is _Batch:
                try:
                    self._drain(item)
                except BaseException:  # a settle raised: nobody claims the rest
                    self._abandon(item)
                continue
            future, handler, args, kwargs = item
            try:
                result = self._timed(handler, args, kwargs)
            except BaseException as exc:
                future.set_exception(exc)
            else:
                future.set_result(result)

    # -- batches -----------------------------------------------------------

    def _wake_locked(self, batch: _Batch) -> bool:
        """Queue ``batch`` as a wake-up, past the bound; False once the
        stage is shut down, when nobody would take it."""
        if self._shutdown:
            return False
        batch.waking = True
        self._queue.put(batch)
        return True

    def _abandon(self, batch: _Batch) -> None:
        """Settle ``batch``'s unclaimed items as shut down."""
        with self._lock:
            rest = batch.items[batch.claimed:]
            batch.claimed = len(batch.items)
            self._admitted -= len(rest)
        for item in rest:
            batch.settle(item, "shut down")

    def _drain(self, batch: _Batch) -> None:
        """One wake-up, on a worker.  Claim the next item; while some
        stay unclaimed, wake at most one more worker — before running,
        so blocking items still overlap; run it; claim again."""
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
                stranded = wake and not self._wake_locked(batch)
            if stranded:
                self._abandon(batch)
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
