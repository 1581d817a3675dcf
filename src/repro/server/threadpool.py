"""Bounded worker thread pool with its own future type, and the latch
Figure 2's protocol thread sleeps on.  Built from primitives rather than
``concurrent.futures`` for an atomic bounded submit and the admitted
submits a :class:`~repro.server.stage.Stage` batch queues past the bound.

The pool's queue is a ``queue.SimpleQueue``: its blocking ``get`` waits
in C, where ``queue.Queue`` runs a Python ``Condition`` on every put and
get.  It needs no bound or lock of its own: the bound is checked under
the pool's lock, and ``qsize``/``get_nowait`` serve the queue depth and
the shutdown drain.  A :class:`TaskFuture` builds its ``Event`` only for
a caller that waits.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import CancelledError
from typing import Any, Callable

from repro.errors import PoolSaturatedError, ServiceError


class TaskFuture:
    """Completion handle for one submitted task.

    Its :class:`threading.Event` is built by the first caller that has
    to wait (:meth:`result`, :meth:`exception`): the evented driver and
    the stage batches never wait on theirs.
    """

    __slots__ = ("_done", "_event", "_result", "_exception", "_callbacks", "_lock")

    def __init__(self) -> None:
        self._done = False
        self._event: threading.Event | None = None
        self._result: Any = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["TaskFuture"], None]] = []
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
            event, callbacks, self._callbacks = self._event, self._callbacks, []
        # a waiter that found the future pending built ``event`` under
        # the lock; one that comes later finds it done and never waits
        if event is not None:
            event.set()
        for callback in callbacks:
            callback(self)

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

    def add_done_callback(self, callback: Callable[["TaskFuture"], None]) -> None:
        """Run ``callback(self)`` on completion (immediately if done)."""
        with self._lock:
            if not self._done:
                self._callbacks.append(callback)
                return
        callback(self)


_SHUTDOWN = object()


class ThreadPool:
    """Fixed-size worker pool fed by one queue (event-driven model [5]).

    ``max_queue`` bounds the backlog: a submit past it raises
    :class:`PoolSaturatedError` — the SEDA-style explicit shed point
    (§3.3's "too many concurrent threads" applies to unbounded queues
    too).  ``None`` leaves the queue unbounded.
    """

    def __init__(
        self, workers: int, *, name: str = "pool", max_queue: int | None = None
    ) -> None:
        if workers < 1:
            raise ServiceError("thread pool needs at least one worker")
        if max_queue is not None and max_queue < 1:
            raise ServiceError("max_queue must be >= 1 (or None for unbounded)")
        self.name = name
        self.max_queue = max_queue
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []
        self._shutdown = False
        self._lock = threading.Lock()
        for i in range(workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"{name}-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    @property
    def workers(self) -> int:
        return len(self._threads)

    def queue_depth(self) -> int:
        """Tasks waiting for a worker right now (approximate)."""
        return self._queue.qsize()

    def submit(self, func: Callable[..., Any], /, *args: Any, **kwargs: Any) -> TaskFuture:
        """Queue ``func(*args, **kwargs)``; returns its future.

        Raises :class:`PoolSaturatedError` when the backlog is at
        ``max_queue`` — the caller decides how to shed (the SOAP stack
        maps it to a ``Server.Busy`` fault + HTTP 503).
        """
        return self._enqueue(func, args, kwargs, self.max_queue)

    def submit_admitted(self, func: Callable[..., Any], /, *args: Any) -> TaskFuture:
        """Queue ``func(*args)`` past ``max_queue``: for work the caller
        admitted by its own count (a :class:`~repro.server.stage.Stage` batch)."""
        return self._enqueue(func, args, {}, None)

    def _enqueue(self, func, args, kwargs, bound: int | None) -> TaskFuture:
        future = TaskFuture()
        # Check and enqueue in one critical section: the bound holds
        # under concurrent submitters, and a task can never land behind
        # shutdown()'s drain (put on the unbounded queue does not block).
        with self._lock:
            if self._shutdown:
                raise ServiceError(f"pool '{self.name}' is shut down")
            if bound is not None and self._queue.qsize() >= bound:
                raise PoolSaturatedError(
                    f"pool '{self.name}' queue is full "
                    f"({self.max_queue} tasks waiting)"
                )
            self._queue.put((future, func, args, kwargs))
        return future

    def shutdown(self, *, join_timeout: float = 5.0) -> None:
        """Cancel queued tasks, then join every worker; idempotent.

        Tasks that never reached a worker fail their futures with
        :class:`CancelledError` — without this, a ``result()`` caller
        whose task was still queued at shutdown would block forever.
        Tasks already running are allowed to finish.
        """
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        # Drain queued-but-unstarted tasks.  Workers may race us for
        # items; whichever side wins, every future completes exactly
        # once (run by a worker, or cancelled here).
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:  # pragma: no cover - concurrent shutdown
                continue
            future = item[0]
            future.set_exception(
                CancelledError(f"pool '{self.name}' shut down before task started")
            )
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join(timeout=join_timeout)

    def __enter__(self) -> "ThreadPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- internals -----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            future, func, args, kwargs = item
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                future.set_exception(exc)
            else:
                future.set_result(result)


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
