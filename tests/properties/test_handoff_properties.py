"""Property-based tests for the hand-off between the event loop and its
worker stage.

(a) The pool: on a ``ThreadPool`` of 1–3 workers and a ``max_queue`` of
1–4, any interleaving of submits, task completions and failures,
``result(timeout)`` calls, ``add_done_callback`` and ``shutdown``
completes every future exactly once (run by a worker, or cancelled by
the shutdown drain, never both), wakes every waiter, and admits no
submit past the bound.  The test drives the tasks: each one blocks on
its own gate until the test releases it, so after every step the model
knows which tasks run and which wait in the queue.

(b) The loop: an evented server answers, in order, a pipelined burst of
1–20 requests whose bytes arrive cut into random ``send``s, then one
more request on the same connection.  The loop stops reading a
connection after a short ``recv`` and relies on the selector to report
what comes later, and parks a connection at the pipelining cap (16);
this holds it to still reading what comes later.
"""

import socket
import threading
import time
from concurrent.futures import CancelledError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PoolSaturatedError, ServiceError
from repro.http.evented import EventedHttpServer
from repro.http.message import Headers, HttpResponse
from repro.server.threadpool import ThreadPool
from repro.transport.tcp import TcpTransport

from ..http.test_evented import recv_response

WAIT_S = 5.0


class _Task:
    """One submitted task: blocks on ``gate`` until the test releases it,
    then returns ``value`` or raises ``error``."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.gate = threading.Event()
        self.started = threading.Event()
        self.error: Exception | None = None
        self.future = None
        self.callbacks_run = 0
        self.callbacks_added = 0

    def __call__(self) -> int:
        self.started.set()
        assert self.gate.wait(WAIT_S), "test never released the task"
        if self.error is not None:
            raise self.error
        return self.index


class _Model:
    """What the pool must be doing after each step."""

    def __init__(self, pool: ThreadPool) -> None:
        self.pool = pool
        self.tasks: list[_Task] = []
        self.running: list[_Task] = []
        self.queued: list[_Task] = []
        self.cancelled: list[_Task] = []
        self.waiters: list[tuple[threading.Thread, list]] = []
        self.callback_lock = threading.Lock()
        self.shut_down = False
        self.shutdown_thread: threading.Thread | None = None

    def settle(self) -> None:
        """Idle workers take the oldest queued tasks; wait until they have."""
        while not self.shut_down and self.queued and len(self.running) < self.pool.workers:
            task = self.queued.pop(0)
            assert task.started.wait(WAIT_S), "an idle worker left a task queued"
            self.running.append(task)
        for task in self.queued:
            assert not task.started.is_set(), "more tasks started than workers"
        assert len(self.queued) <= self.pool.max_queue

    def callback(self, task: _Task):
        def run(future) -> None:
            assert future is task.future and future.done()
            with self.callback_lock:
                task.callbacks_run += 1

        return run

    def submit(self, fail: bool) -> None:
        task = _Task(len(self.tasks))
        if fail:
            task.error = ValueError(f"task {task.index} failed")
        try:
            future = self.pool.submit(task)
        except PoolSaturatedError:
            assert not self.shut_down
            assert len(self.queued) >= self.pool.max_queue, "shed below the bound"
            return
        except ServiceError:
            assert self.shut_down
            return
        assert not self.shut_down, "admitted after shutdown"
        assert len(self.queued) < self.pool.max_queue, "admitted past the bound"
        task.future = future
        self.tasks.append(task)
        self.queued.append(task)
        self.settle()

    def finish(self, pick: int) -> None:
        if not self.running:
            return
        task = self.running.pop(pick % len(self.running))
        task.gate.set()
        try:
            assert task.future.result(timeout=WAIT_S) == task.index
            assert task.error is None
        except ValueError as exc:
            assert exc is task.error
        self.settle()

    def poll(self, pick: int) -> None:
        """``result`` with a short timeout: a pending future times out."""
        if not self.tasks:
            return
        task = self.tasks[pick % len(self.tasks)]
        if task in self.running or task in self.queued:
            with pytest.raises(TimeoutError):
                task.future.result(timeout=0.001)
            assert not task.future.done()
        else:
            assert task.future.done()

    def wait_in_thread(self, pick: int) -> None:
        if not self.tasks:
            return
        task = self.tasks[pick % len(self.tasks)]
        outcome: list = []

        def wait() -> None:
            try:
                outcome.append(task.future.result(timeout=WAIT_S))
            except BaseException as exc:  # noqa: BLE001 - recorded, checked below
                outcome.append(exc)

        thread = threading.Thread(target=wait, daemon=True)
        thread.start()
        self.waiters.append((thread, outcome))

    def add_callback(self, pick: int) -> None:
        if not self.tasks:
            return
        task = self.tasks[pick % len(self.tasks)]
        task.callbacks_added += 1
        task.future.add_done_callback(self.callback(task))

    def shutdown(self) -> None:
        if self.shut_down:
            return
        self.shut_down = True
        # running tasks hold their workers until released, so shutdown's
        # join runs beside the rest of the steps
        self.shutdown_thread = threading.Thread(target=self.pool.shutdown, daemon=True)
        self.shutdown_thread.start()
        for task in self.queued:
            with pytest.raises(CancelledError):
                task.future.result(timeout=WAIT_S)
            assert not task.started.is_set()
        self.cancelled, self.queued = self.queued, []

    def close(self) -> None:
        """Release everything, then check every future's one outcome."""
        while self.running:
            self.finish(0)
        self.shutdown()
        self.shutdown_thread.join(WAIT_S)
        assert not self.shutdown_thread.is_alive()
        for task in self.tasks:
            assert task.future.done()
            if task in self.cancelled:
                assert not task.started.is_set()
                assert isinstance(task.future.exception(timeout=0), CancelledError)
            elif task.error is not None:
                assert task.future.exception(timeout=0) is task.error
            else:
                assert task.future.result(timeout=0) == task.index
            with self.callback_lock:
                assert task.callbacks_run == task.callbacks_added
        for thread, outcome in self.waiters:
            thread.join(WAIT_S)
            assert not thread.is_alive(), "a waiter was stranded"
            (value,) = outcome
            assert not isinstance(value, TimeoutError), "a waiter was stranded"


# submits weigh three times the other steps, so plans fill the queue
steps = st.lists(
    st.tuples(
        st.sampled_from(["submit"] * 3 + ["finish", "poll", "wait", "callback", "shutdown"]),
        st.integers(0, 50),
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), steps)
def test_every_future_completes_once_and_the_bound_holds(workers, max_queue, plan):
    model = _Model(ThreadPool(workers, name="prop", max_queue=max_queue))
    try:
        for op, arg in plan:
            if op == "submit":
                model.submit(fail=arg % 4 == 0)
            elif op == "finish":
                model.finish(arg)
            elif op == "poll":
                model.poll(arg)
            elif op == "wait":
                model.wait_in_thread(arg)
            elif op == "callback":
                model.add_callback(arg)
            else:
                model.shutdown()
    finally:
        model.close()


# -- (b) the loop ------------------------------------------------------------


def _echo(request):
    return HttpResponse(200, Headers({"Content-Type": "text/plain"}), request.body)


@pytest.fixture(scope="module")
def evented_address():
    server = EventedHttpServer(_echo, transport=TcpTransport(), address=("127.0.0.1", 0))
    with server.running() as address:
        yield address


def _request(index: int, body: bytes) -> bytes:
    body = b"%d:" % index + body
    return b"POST /svc HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


@settings(max_examples=40, deadline=None)
@given(
    # the count drawn first: lists grow short, and a burst of 16 or more
    # read in one pass is the one that parks the connection
    st.integers(1, 20).flatmap(
        lambda count: st.lists(st.binary(max_size=120), min_size=count, max_size=count)
    ),
    st.lists(st.tuples(st.integers(0, 10_000), st.booleans()), max_size=12),
)
def test_a_pipelined_burst_cut_into_sends_is_answered_in_order(evented_address, bodies, cuts):
    burst = b"".join(_request(i, body) for i, body in enumerate(bodies))
    points = sorted({(cut % len(burst), pause) for cut, pause in cuts})
    with socket.create_connection(evented_address, timeout=WAIT_S) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        last = 0
        for cut, pause in points:
            if cut > last:
                sock.sendall(burst[last:cut])
                last = cut
                if pause:  # let the loop read this piece on its own
                    time.sleep(0.001)
        sock.sendall(burst[last:])
        buffer = bytearray()
        for i, body in enumerate(bodies):
            head, echoed = recv_response(sock, buffer)
            assert head.startswith(b"HTTP/1.1 200")
            assert echoed == b"%d:" % i + body
        assert not buffer
        # a burst past the pipelining cap parked the connection: it is read again
        sock.sendall(_request(len(bodies), b"after"))
        assert recv_response(sock, buffer)[1] == b"%d:after" % len(bodies)
