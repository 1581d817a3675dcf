"""Unit tests for a stage's queue and worker threads, its futures and
the completion latch."""

import threading
import time
from concurrent.futures import CancelledError

import pytest

from repro.errors import PoolSaturatedError, ServiceError
from repro.server.stage import CompletionLatch, Stage, TaskFuture


class TestTaskFuture:
    def test_result(self):
        f = TaskFuture()
        f.set_result(42)
        assert f.done()
        assert f.result() == 42
        assert f.exception() is None

    def test_exception(self):
        f = TaskFuture()
        f.set_exception(ValueError("x"))
        assert f.done()
        with pytest.raises(ValueError):
            f.result()
        assert isinstance(f.exception(), ValueError)

    def test_result_timeout(self):
        f = TaskFuture()
        with pytest.raises(TimeoutError):
            f.result(timeout=0.01)


class TestThreadPool:
    def test_submit_and_result(self):
        with Stage("pool", 2) as pool:
            assert pool.submit(lambda: 7).result(timeout=5) == 7

    def test_args_kwargs(self):
        with Stage("pool", 1) as pool:
            assert pool.submit(divmod, 7, 3).result(timeout=5) == (2, 1)
            assert pool.submit(int, "ff", base=16).result(timeout=5) == 255

    def test_exception_propagates_via_future(self):
        def boom():
            raise KeyError("nope")

        with Stage("pool", 1) as pool:
            future = pool.submit(boom)
            with pytest.raises(KeyError):
                future.result(timeout=5)

    def test_worker_survives_task_failure(self):
        with Stage("pool", 1) as pool:
            pool.submit(lambda: 1 / 0).exception(timeout=5)
            assert pool.submit(lambda: "alive").result(timeout=5) == "alive"

    def test_concurrency_actually_happens(self):
        # each task waits until all three are running at once: fewer
        # workers side by side break the barrier instead of passing
        barrier = threading.Barrier(3, timeout=5)

        def rendezvous():
            barrier.wait()
            return True

        with Stage("pool", 3) as pool:
            futures = [pool.submit(rendezvous) for _ in range(3)]
            assert all(f.result(timeout=5) for f in futures)

    def test_zero_workers_raises(self):
        with pytest.raises(ServiceError):
            Stage("pool", 0)

    def test_submit_after_shutdown_raises(self):
        pool = Stage("pool", 1)
        pool.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            pool.submit(lambda: 1)

    def test_shutdown_idempotent(self):
        pool = Stage("pool", 1)
        pool.shutdown()
        pool.shutdown()

    def test_stats_counts(self):
        ran = []
        with Stage("pool", 2) as pool:
            for i in range(5):
                pool.submit(ran.append, i).result(timeout=5)
        assert sorted(ran) == [0, 1, 2, 3, 4]


class TestShutdownCancelsQueuedTasks:
    def test_queued_tasks_fail_with_cancelled_error(self):
        release = threading.Event()
        pool = Stage("pool", 1)
        blocker = pool.submit(release.wait, 5)
        queued = [pool.submit(lambda: "never ran") for _ in range(4)]
        # let the single worker pick up the blocker before shutting down,
        # and release it only after shutdown has drained the queue
        time.sleep(0.05)
        threading.Timer(0.2, release.set).start()
        pool.shutdown()
        assert blocker.result(timeout=5) is True
        for future in queued:
            assert future.done()
            with pytest.raises(CancelledError, match="shut down before"):
                future.result(timeout=0)

    def test_result_on_cancelled_future_does_not_hang(self):
        release = threading.Event()
        pool = Stage("pool", 1)
        pool.submit(release.wait, 5)
        queued = pool.submit(lambda: 1)
        time.sleep(0.05)
        threading.Timer(0.2, release.set).start()
        pool.shutdown()
        start = time.monotonic()
        with pytest.raises(CancelledError):
            queued.result()  # no timeout: must not block forever
        assert time.monotonic() - start < 2.0


class TestShutdownDeadline:
    def test_joins_share_one_join_timeout(self):
        # three workers stuck in user code: shutdown waits one
        # join_timeout in all, not one per worker
        release = threading.Event()
        started = threading.Barrier(4, timeout=5)

        def stuck():
            started.wait()
            release.wait(5)

        pool = Stage("pool", 3)
        try:
            for _ in range(3):
                pool.submit(stuck)
            started.wait()
            start = time.monotonic()
            pool.shutdown(join_timeout=0.2)
            assert time.monotonic() - start < 0.5
        finally:
            release.set()


class TestBoundedQueue:
    def test_submit_beyond_max_queue_is_rejected(self):
        release = threading.Event()
        with Stage("pool", 1, max_queue=2) as pool:
            pool.submit(release.wait, 5)
            time.sleep(0.05)  # blocker reaches the worker; queue empties
            accepted = [pool.submit(lambda: None) for _ in range(2)]
            with pytest.raises(PoolSaturatedError, match="queue is full"):
                pool.submit(lambda: None)
            release.set()
            for future in accepted:
                future.result(timeout=5)

    def test_unbounded_by_default(self):
        with Stage("pool", 1) as pool:
            assert pool.max_queue is None
            futures = [pool.submit(lambda: 1) for _ in range(64)]
            assert all(f.result(timeout=5) == 1 for f in futures)

    def test_bad_max_queue_raises(self):
        with pytest.raises(ServiceError):
            Stage("pool", 1, max_queue=0)


class TestSubmitIsAtomic:
    """``submit`` checks the bound / the shutdown flag and enqueues in
    one critical section.  Each test widens the window between check
    and enqueue by slowing the queue's ``put`` for task items: the
    stage's queue is swapped for a proxy of it (a C ``SimpleQueue``
    refuses a patched method), so workers parked in ``get`` keep
    reading the same queue."""

    class _SlowTaskPuts:
        def __init__(self, inner, before_put):
            self._inner = inner
            self._before_put = before_put

        def put(self, item):
            if isinstance(item, tuple):  # a task, not a shutdown sentinel
                self._before_put()
            self._inner.put(item)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    @classmethod
    def slow_task_puts(cls, pool, before_put):
        pool._queue = cls._SlowTaskPuts(pool._queue, before_put)

    def test_concurrent_submitters_cannot_overshoot_max_queue(self):
        submitters = 8
        release = threading.Event()
        started = threading.Event()
        pool = Stage("pool", 1, max_queue=1)
        try:
            def blocker():
                started.set()
                release.wait(5)

            pool.submit(blocker)
            assert started.wait(5)  # the one worker is parked; queue empty
            self.slow_task_puts(pool, lambda: time.sleep(0.02))
            barrier = threading.Barrier(submitters, timeout=5)
            accepted, rejected = [], []

            def submit():
                barrier.wait()
                try:
                    accepted.append(pool.submit(lambda: None))
                except PoolSaturatedError as exc:
                    rejected.append(exc)

            threads = [threading.Thread(target=submit) for _ in range(submitters)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(accepted) == 1
            assert len(rejected) == submitters - 1
            assert pool.queue_depth() == 1
        finally:
            release.set()
            pool.shutdown()

    def test_submit_racing_shutdown_completes_or_cancels(self):
        in_put = threading.Event()
        shut_down = threading.Event()
        pool = Stage("pool", 1)

        def before_put():
            in_put.set()
            # past the shutdown check, not yet enqueued: give shutdown()
            # every chance to drain the queue and post its sentinels
            shut_down.wait(0.3)

        self.slow_task_puts(pool, before_put)
        futures = []
        submitter = threading.Thread(
            target=lambda: futures.append(pool.submit(lambda: "ran"))
        )
        submitter.start()
        assert in_put.wait(5)
        pool.shutdown()
        shut_down.set()
        submitter.join(timeout=5)
        assert not submitter.is_alive()
        (future,) = futures
        # run by the worker or cancelled by the drain — never stranded
        # behind the sentinels with nobody left to complete it
        try:
            assert future.result(timeout=2) == "ran"
        except CancelledError:
            pass
        assert future.done()


class TestCompletionLatch:
    def test_wait_returns_when_counted_down(self):
        latch = CompletionLatch(2)
        latch.count_down()
        assert not latch.wait(timeout=0)
        latch.count_down()
        assert latch.wait(timeout=1)

    def test_zero_latch_is_immediately_open(self):
        assert CompletionLatch(0).wait(timeout=0)

    def test_wait_timeout(self):
        assert not CompletionLatch(1).wait(timeout=0.01)

    def test_extra_count_down_harmless(self):
        latch = CompletionLatch(1)
        latch.count_down()
        latch.count_down()
        assert latch.wait(timeout=0)

    def test_negative_count_raises(self):
        with pytest.raises(ServiceError):
            CompletionLatch(-1)

    def test_wakes_sleeping_thread(self):
        latch = CompletionLatch(3)
        woken_at = []

        def sleeper():
            latch.wait(timeout=5)
            woken_at.append(time.monotonic())

        thread = threading.Thread(target=sleeper)
        thread.start()
        time.sleep(0.02)
        for _ in range(3):
            latch.count_down()
        thread.join(timeout=5)
        assert woken_at
