"""Property-based tests for the hand-off between the event loop and its
worker stage.

(a) The stage: on a ``Stage`` of 1–3 workers and a ``max_queue`` of
1–4, any interleaving of event submits, batches (``run_batch``), task
and batch-item completions and failures, ``result(timeout)`` calls and
``shutdown`` completes every event's future exactly once (run by a
worker, or cancelled by the shutdown drain, never both) and wakes every
waiter; settles every admitted batch item exactly once (run, or "shut
down"); hands the shed items of a batch back in order; and admits no
event past the bound, while batch wake-ups pass it.  Events and
wake-ups share one queue.  The test drives the work: each task and
batch item blocks on its own gate until the test releases it, so after
every step the model knows what runs and what waits in the queue.

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
from repro.server.stage import Stage
from repro.transport.tcp import TcpTransport

from ..http.test_evented import recv_response

WAIT_S = 5.0


class _Task:
    """One submitted event, or one batch item: blocks on ``gate`` until
    the test releases it, then returns ``value`` or raises ``error``."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.gate = threading.Event()
        self.started = threading.Event()
        self.error: Exception | None = None
        self.future = None
        self.outcomes: list[str] = []  # a batch item's settlements
        self.settled = threading.Event()

    def __call__(self) -> int:
        self.started.set()
        assert self.gate.wait(WAIT_S), "test never released the task"
        if self.error is not None:
            raise self.error
        return self.index


def settle(item: _Task, shed: str | None = None) -> None:
    """The batch callback: run ``item``, or record how it was shed."""
    try:
        if shed is not None:
            assert not item.started.is_set(), "shed after it started"
            item.outcomes.append(shed)
        else:
            item.outcomes.append("ran")
            item()
    finally:
        item.settled.set()


class _Batch:
    """One ``run_batch`` call as the model sees it."""

    def __init__(self, items: list[_Task]) -> None:
        self.items = items
        self.admitted: list[_Task] = []
        self.claimed = 0
        self.waking = False


class _Model:
    """What the stage must be doing after each step."""

    def __init__(self, stage: Stage) -> None:
        self.stage = stage
        self.tasks: list[_Task] = []
        self.batches: list[_Batch] = []
        # events (_Task) and batch wake-ups (_Batch), in queue order
        self.queue: list = []
        self.running: list[tuple[_Task, _Batch | None]] = []
        self.admitted = 0  # batch items admitted, not yet settled
        self.cancelled: list[_Task] = []
        self.waiters: list[tuple[threading.Thread, list]] = []
        self.shut_down = False
        self.shutdown_thread: threading.Thread | None = None

    # -- what the workers do -------------------------------------------

    def start(self, task: _Task, batch: _Batch | None) -> None:
        assert task.started.wait(WAIT_S), "an idle worker left work queued"
        self.running.append((task, batch))

    def claim(self, batch: _Batch) -> bool:
        """A worker claims ``batch``'s next item, waking one more worker
        while some stay unclaimed; False when none is left."""
        if batch.claimed == len(batch.admitted):
            return False
        item = batch.admitted[batch.claimed]
        batch.claimed += 1
        if not batch.waking and batch.claimed < len(batch.admitted):
            if self.shut_down:
                self.abandon(batch)
            else:
                batch.waking = True
                self.queue.append(batch)
        self.start(item, batch)
        return True

    def abandon(self, batch: _Batch) -> None:
        """``batch``'s unclaimed items settle as shut down."""
        rest = batch.admitted[batch.claimed:]
        batch.claimed = len(batch.admitted)
        self.admitted -= len(rest)
        for item in rest:
            assert item.settled.wait(WAIT_S), "an unclaimed item never settled"
            assert item.outcomes == ["shut down"]

    def advance(self) -> None:
        """Idle workers take the queue's head until none is idle; wait
        until they have."""
        idle = self.stage.workers - len(self.running)
        while not self.shut_down and idle and self.queue:
            entry = self.queue.pop(0)
            if isinstance(entry, _Task):
                self.start(entry, None)
                idle -= 1
            else:  # a wake-up: claims an item, or finds none left
                entry.waking = False
                idle -= self.claim(entry)
        self.quiesce()

    def quiesce(self) -> None:
        """Wait until the stage's queue and its batch count match the
        model's: a worker may still be between two claims."""
        deadline = time.monotonic() + WAIT_S
        while True:
            depth_ok = self.shut_down or self.stage.queue_depth() == len(self.queue)
            if depth_ok and self.stage._admitted == self.admitted:
                break
            assert time.monotonic() < deadline, "the stage never settled"
            time.sleep(0.0005)
        for task in self.queue:
            if isinstance(task, _Task):
                assert not task.started.is_set(), "more tasks started than workers"
        events = sum(isinstance(entry, _Task) for entry in self.queue)
        assert events <= self.stage.max_queue, "events queued past the bound"

    # -- steps ---------------------------------------------------------

    def submit(self, fail: bool) -> None:
        task = _Task(len(self.tasks))
        if fail:
            task.error = ValueError(f"task {task.index} failed")
        try:
            future = self.stage.submit(task)
        except PoolSaturatedError:
            assert not self.shut_down
            assert len(self.queue) >= self.stage.max_queue, "shed below the bound"
            return
        except ServiceError:
            assert self.shut_down
            return
        assert not self.shut_down, "admitted after shutdown"
        assert len(self.queue) < self.stage.max_queue, "admitted past the bound"
        task.future = future
        self.tasks.append(task)
        self.queue.append(task)
        self.advance()

    def run_batch(self, size: int, fail_at: int) -> None:
        """One batch of ``size`` items; item ``fail_at`` (if any) raises."""
        batch = _Batch([_Task(i) for i in range(size)])
        if fail_at < size:
            batch.items[fail_at].error = ValueError(f"item {fail_at} failed")
        room = self.stage.max_queue + self.stage.workers - self.admitted
        shed = self.stage.run_batch(list(batch.items), settle)
        batch.admitted = batch.items[: max(room, 0)]
        assert shed == batch.items[len(batch.admitted):], "shed out of order"
        self.batches.append(batch)
        self.admitted += len(batch.admitted)
        if batch.admitted:
            if self.shut_down:  # nobody would take the wake-up
                self.abandon(batch)
            else:
                batch.waking = True
                self.queue.append(batch)  # past the bound
        self.advance()

    def finish(self, pick: int) -> None:
        if not self.running:
            return
        task, batch = self.running.pop(pick % len(self.running))
        task.gate.set()
        if batch is None:
            try:
                assert task.future.result(timeout=WAIT_S) == task.index
                assert task.error is None
            except ValueError as exc:
                assert exc is task.error
        else:
            assert task.settled.wait(WAIT_S)
            self.admitted -= 1
            if task.error is not None:  # nobody claims the rest
                self.abandon(batch)
            else:  # the worker claims the batch's next item, if any
                self.claim(batch)
        self.advance()

    def poll(self, pick: int) -> None:
        """``result`` with a short timeout: a pending future times out."""
        if not self.tasks:
            return
        task = self.tasks[pick % len(self.tasks)]
        if (task, None) in self.running or task in self.queue:
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

    def shutdown(self) -> None:
        if self.shut_down:
            return
        self.shut_down = True
        # running work holds its workers until released, so shutdown's
        # join runs beside the rest of the steps
        self.shutdown_thread = threading.Thread(target=self.stage.shutdown, daemon=True)
        self.shutdown_thread.start()
        for entry in self.queue:
            if isinstance(entry, _Task):
                with pytest.raises(CancelledError):
                    entry.future.result(timeout=WAIT_S)
                assert not entry.started.is_set()
                self.cancelled.append(entry)
            else:
                self.abandon(entry)
        self.queue = []
        self.quiesce()

    def close(self) -> None:
        """Release everything, then check every outcome."""
        while self.running:
            self.finish(0)
        self.shutdown()
        self.shutdown_thread.join(WAIT_S)
        assert not self.shutdown_thread.is_alive()
        assert self.stage._admitted == 0
        for task in self.tasks:
            assert task.future.done()
            if task in self.cancelled:
                assert not task.started.is_set()
                assert isinstance(task.future.exception(timeout=0), CancelledError)
            elif task.error is not None:
                assert task.future.exception(timeout=0) is task.error
            else:
                assert task.future.result(timeout=0) == task.index
        for batch in self.batches:
            for item in batch.admitted:  # exactly once: run, or shut down
                expected = ["ran"] if item.started.is_set() else ["shut down"]
                assert item.outcomes == expected
            for item in batch.items[len(batch.admitted):]:
                assert item.outcomes == [], "a shed item was settled"
        for thread, outcome in self.waiters:
            thread.join(WAIT_S)
            assert not thread.is_alive(), "a waiter was stranded"
            (value,) = outcome
            assert not isinstance(value, TimeoutError), "a waiter was stranded"


# submits and batches weigh more than the other steps, so plans fill the queue
steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["submit"] * 3 + ["batch"] * 2 + ["finish"] * 2 + ["poll", "wait", "shutdown"]
        ),
        st.integers(0, 50),
    ),
    max_size=25,
)


# 200 examples: at 60 the plans were too short to mix a full queue of
# events with a batch's wake-up
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), steps)
def test_every_future_completes_once_and_the_bound_holds(workers, max_queue, plan):
    model = _Model(Stage("prop", workers, max_queue=max_queue))
    try:
        for op, arg in plan:
            if op == "submit":
                model.submit(fail=arg % 4 == 0)
            elif op == "batch":
                model.run_batch(size=arg % 5 + 1, fail_at=arg % 8)
            elif op == "finish":
                model.finish(arg)
            elif op == "poll":
                model.poll(arg)
            elif op == "wait":
                model.wait_in_thread(arg)
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
