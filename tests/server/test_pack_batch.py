"""The application stage runs a pack as one batch — when the pack has
something to overlap.

Figure 2's fan-out hands the stage one batch per pack, not one task per
entry: workers claim entries one at a time and wake at most one more
worker while some stay unclaimed.  These tests pin what that must keep
from the per-entry design — full overlap of blocking entries, per-entry
admission against ``app_queue_limit``, per-entry stage accounting — and
what it must add: a stage that shuts down under a pack answers the
entries it never ran instead of leaving the protocol thread asleep, and
a pack leaves no garbage cycle behind.  ``TestPlacement`` pins which
packs run on the protocol thread instead: those whose operations were
measured on the stage and did not wait.
"""

import gc
import random
import sys
import threading
import time

import pytest

from repro.core.dispatcher import spi_server_handlers
from repro.core.oneway import mark_one_way
from repro.core.packformat import build_parallel_method
from repro.http.message import Headers, HttpRequest
from repro.resilience.policy import Deadline
from repro.server import ServerConfig, build_server
from repro.server.handlers import HandlerChain, MessageContext
from repro.server.service import service_from_functions
from repro.soap.constants import SOAP_CONTENT_TYPE
from repro.soap.envelope import Envelope
from repro.soap.fault import SoapFault
from repro.soap.serializer import build_request_envelope, serialize_rpc_request
from repro.transport.inproc import InProcTransport

from ..metrics import counters, gauges, sketches

NS = "urn:svc:batch"


def staged_server(functions, **config):
    service = service_from_functions("BatchService", NS, functions)
    return build_server(ServerConfig(
        services=[service],
        transport=InProcTransport(),
        address=f"batch-{id(functions)}",
        chain=HandlerChain(spi_server_handlers()),
        **config,
    ))


def entries(operation, count, **params):
    return [
        serialize_rpc_request(NS, operation, {"payload": f"p{i}", **params})
        for i in range(count)
    ]


def execute(server, pack):
    """The protocol thread's side of Figure 2, without HTTP."""
    return server._execute(pack, MessageContext.for_envelope(Envelope()))


def packed_request(pack):
    envelope = Envelope()
    envelope.add_body(build_parallel_method(pack))
    return HttpRequest(
        "POST",
        "/services/BatchService",
        Headers({"Content-Type": SOAP_CONTENT_TYPE}),
        envelope.to_bytes(),
    )


def faultcodes(slots):
    return [slot.findtext("faultcode") for slot in slots]


def stage_runs(server):
    """Entries the application stage ran: its service-time sketch's count."""
    return sketches(server)["stage.application.service_time_s"]["count"]


def on_stage(thread_name):
    return thread_name.startswith("stage-application")


def recording(ran, work=None):
    """An echo that notes ``(payload, thread name)`` in ``ran`` after
    doing ``work``."""

    def operation(payload: str) -> str:
        if work is not None:
            work()
        ran.append((payload, threading.current_thread().name))
        return payload

    return operation


def measure(server, operation, count):
    """Stage packs of ``count`` ``operation`` entries until its last
    off-CPU time on the stage, ``count`` times over, is below the
    measured hand-off cost — then its next pack of ``count`` runs on
    the protocol thread.  One pack on a quiet box; a run the scheduler
    preempted reads as waiting and is staged and measured again.
    Returns the entries it staged."""
    record = server.container.operation_metrics[f"{{{NS}}}{operation}"]
    staged = 0
    for _ in range(50):
        handoff = server.app_stage.handoff_s
        if (
            handoff is not None
            and record.off_cpu_s is not None
            and count * record.off_cpu_s < handoff
        ):
            return staged
        execute(server, entries(operation, count))
        staged += count
    raise AssertionError(f"'{operation}' never measured below the hand-off cost")


def wait_for(predicate, timeout=5.0):
    """A worker records its entry's stats after the latch let the caller
    go (and one-way entries are never waited for): poll, briefly."""
    give_up = time.monotonic() + timeout
    while not predicate() and time.monotonic() < give_up:
        time.sleep(0.005)
    time.sleep(0.02)  # anything past the expected count would show now


class TestOverlap:
    @pytest.mark.parametrize("count, workers", [(8, 4), (16, 16), (6, 8)])
    def test_blocking_entries_run_side_by_side(self, count, workers):
        # Every entry waits for min(count, workers) entries to be running
        # at once: a fan-out that runs fewer side by side breaks the
        # barrier and faults, instead of passing slowly.
        barrier = threading.Barrier(min(count, workers), timeout=5)

        def rendezvous(payload: str) -> str:
            barrier.wait()
            return payload

        server = staged_server({"rendezvous": rendezvous}, app_workers=workers)
        with server.running():
            slots = execute(server, entries("rendezvous", count))
        assert [slot.local_name for slot in slots] == ["rendezvousResponse"] * count
        assert [slot.require("return").text for slot in slots] == [
            f"p{i}" for i in range(count)
        ]


class TestAdmission:
    def test_concurrent_packs_never_queue_past_the_limit(self):
        limit, packs, per_pack = 2, 4, 3
        sent = packs * per_pack
        gate = threading.Event()
        started = []

        def hold(payload: str) -> str:
            started.append(payload)
            gate.wait(10)
            return payload

        server = staged_server({"hold": hold}, app_workers=1, app_queue_limit=limit)
        start_line = threading.Barrier(packs)
        answers = []

        def protocol_thread():
            pack = entries("hold", per_pack)
            start_line.wait(5)
            answers.extend(execute(server, pack))

        with server.running():
            threads = [threading.Thread(target=protocol_thread) for _ in range(packs)]
            for thread in threads:
                thread.start()
            # one entry runs on the one worker, `limit` wait; the rest of
            # every pack is refused at admission, whatever the interleaving
            rejected = lambda: counters(server)["stage.application.rejected"]
            wait_for(lambda: rejected() >= sent - 1 - limit)
            assert rejected() == sent - 1 - limit
            assert gauges(server)["stage.application.queue_depth"] <= limit
            assert len(started) == 1
            gate.set()
            for thread in threads:
                thread.join(10)

        codes = faultcodes(answers)
        busy = [code for code in codes if code == "SOAP-ENV:Server.Busy"]
        executed = [code for code in codes if code is None]
        assert len(answers) == sent
        assert len(busy) + len(executed) == sent
        assert len(executed) == 1 + limit
        assert sorted(started) == sorted(
            slot.require("return").text for slot in answers if slot.findtext("faultcode") is None
        )
        assert counters(server)["resilience.shed"] == len(busy)


class TestAccounting:
    def test_stage_counts_every_entry_it_runs_and_no_other(self):
        ran = []  # (payload, name of the thread that ran it)
        here = threading.current_thread().name
        server = staged_server({"echo": recording(ran)})
        with server.running():
            assert execute(server, entries("echo", 1))  # M = 1 stays here
            assert stage_runs(server) == 0
            execute(server, entries("echo", 2))  # echo's first pack: staged
            assert sorted(payload for payload, _ in ran[1:]) == ["p0", "p1"]
            assert all(on_stage(thread) for _, thread in ran[1:])
            staged = 2
            for count in (2, 5, 32):  # measured, CPU only: run here
                staged += measure(server, "echo", count)
                first = len(ran)
                execute(server, entries("echo", count))
                assert [thread for _, thread in ran[first:]] == [here] * count
            casts = [
                mark_one_way(serialize_rpc_request(NS, "echo", {"payload": f"cast{i}"}))
                for i in range(3)
            ]
            staged += measure(server, "echo", 2)
            execute(server, casts + entries("echo", 2))
            wait_for(lambda: stage_runs(server) >= staged + 3)
        assert stage_runs(server) == staged + 3
        assert counters(server)["stage.application.failures"] == 0
        # the stage counted what its workers ran, the casts among them;
        # the protocol thread ran the rest
        ran_on_stage = [p for p, thread in ran if on_stage(thread)]
        ran_here = [p for p, thread in ran if thread == here]
        assert len(ran_on_stage) == stage_runs(server)
        assert len(ran_on_stage) + len(ran_here) == len(ran) == 1 + staged + 39 + 5
        assert {"cast0", "cast1", "cast2"} <= set(ran_on_stage)


class TestStress:
    def test_concurrent_packs_keep_admission_and_accounting_exact(self):
        # more workers than cores and a short switch interval: a lost
        # update to the admission count or the stage stats shows up as
        # a wrong total, or as capacity that never comes back.  The
        # operation really waits, so its packs have something to
        # overlap and keep going to the stage.
        workers, limit, senders, packs = 8, 4, 12, 15
        ran = []  # name of the thread that ran each entry

        def pause(payload: str) -> str:
            threading.Event().wait(0.0005)
            ran.append(threading.current_thread().name)
            return payload

        server = staged_server({"echo": pause}, app_workers=workers, app_queue_limit=limit)
        rng = random.Random(7)
        sizes = [[rng.randint(2, 12) for _ in range(packs)] for _ in range(senders)]
        answers = [[] for _ in range(senders)]

        def sender(index):
            for size in sizes[index]:
                answers[index].extend(execute(server, entries("echo", size)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server.running():
                threads = [
                    threading.Thread(target=sender, args=(i,)) for i in range(senders)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                assert not any(thread.is_alive() for thread in threads)
                codes = [code for answer in answers for code in faultcodes(answer)]
                assert len(codes) == sum(map(sum, sizes))
                assert set(codes) <= {None, "SOAP-ENV:Server.Busy"}
                shed = codes.count("SOAP-ENV:Server.Busy")
                assert len(ran) == len(codes) - shed
                staged = sum(map(on_stage, ran))
                wait_for(lambda: stage_runs(server) >= staged)
                # no capacity leaked: once the stage is idle, a pack of
                # exactly workers + limit entries is admitted whole
                tail = execute(server, entries("echo", workers + limit))
        finally:
            sys.setswitchinterval(interval)

        assert faultcodes(tail) == [None] * (workers + limit)
        assert all(map(on_stage, ran[-(workers + limit):]))
        staged = sum(map(on_stage, ran))
        wait_for(lambda: stage_runs(server) >= staged)
        assert stage_runs(server) == staged
        assert len(ran) == len(codes) - shed + workers + limit
        assert counters(server)["stage.application.rejected"] == shed
        assert counters(server)["resilience.shed"] == shed


class TestPlacement:
    """Which thread ran each entry of a staged pack: a stage worker, or
    the protocol thread (here, the test's own, which calls ``_execute``)."""

    def test_an_unmeasured_operations_first_pack_is_staged(self):
        ran = []
        server = staged_server({"echo": recording(ran)})
        with server.running():
            execute(server, entries("echo", 3))
        assert sorted(payload for payload, _ in ran) == ["p0", "p1", "p2"]
        assert all(on_stage(thread) for _, thread in ran)

    def test_a_measured_cpu_only_pack_runs_on_the_protocol_thread(self):
        ran = []
        here = threading.current_thread().name
        server = staged_server({"echo": recording(ran)})
        with server.running():
            staged = measure(server, "echo", 8)
            assert staged >= 8  # its first pack was staged and measured
            wait_for(lambda: stage_runs(server) >= staged)
            del ran[:]
            slots = execute(server, entries("echo", 8))
            wait_for(lambda: stage_runs(server) > staged, timeout=0.05)
            assert stage_runs(server) == staged
        assert ran == [(f"p{i}", here) for i in range(8)]  # in order, as Fig. 1
        assert [slot.require("return").text for slot in slots] == [f"p{i}" for i in range(8)]

    def test_a_sleeping_operation_stays_staged(self):
        ran = []
        # waits far longer than any hand-off, even on a loaded box
        server = staged_server({"nap": recording(ran, lambda: time.sleep(0.01))})
        record = server.container.operation_metrics[f"{{{NS}}}nap"]
        with server.running():
            for _ in range(3):
                execute(server, entries("nap", 3))
                assert record.off_cpu_s >= 0.005
        assert len(ran) == 9
        assert all(on_stage(thread) for _, thread in ran)

    def test_an_operation_that_starts_waiting_is_staged_again(self):
        ran = []
        here = threading.current_thread().name
        waits = threading.Event()

        def maybe_wait():
            if waits.is_set():
                time.sleep(0.01)

        server = staged_server({"echo": recording(ran, maybe_wait)})
        record = server.container.operation_metrics[f"{{{NS}}}echo"]
        with server.running():
            measure(server, "echo", 2)
            del ran[:]
            waits.set()
            execute(server, entries("echo", 2))  # placed before it waited
            assert [thread for _, thread in ran] == [here, here]
            assert record.off_cpu_s is None  # it waited: measure it again
            del ran[:]
            execute(server, entries("echo", 2))
            assert record.off_cpu_s >= 0.005
        assert len(ran) == 2
        assert all(on_stage(thread) for _, thread in ran)

    def test_one_way_entries_run_on_the_stage_after_the_response(self):
        ran = []
        here = threading.current_thread().name
        gate = threading.Event()

        def start_then_hold():
            ran.append(("start", threading.current_thread().name))
            gate.wait(5)

        server = staged_server({
            "echo": recording(ran),
            "cast": recording(ran, start_then_hold),
        })
        with server.running():
            measure(server, "echo", 2)
            del ran[:]
            casts = [
                mark_one_way(serialize_rpc_request(NS, "cast", {"payload": f"cast{i}"}))
                for i in range(2)
            ]
            slots = execute(server, entries("echo", 2) + casts)
            assert [slot.local_name for slot in slots] == ["echoResponse"] * 2 + ["Accepted"] * 2
            # answered while no cast has finished; they were handed over
            # after the awaited entries ran here
            assert ran[:2] == [("p0", here), ("p1", here)]
            assert all(payload == "start" for payload, _ in ran[2:])
            gate.set()
            wait_for(lambda: len(ran) >= 6)
        casts_ran = [(payload, thread) for payload, thread in ran[2:] if payload != "start"]
        assert sorted(payload for payload, _ in casts_ran) == ["cast0", "cast1"]
        assert all(on_stage(thread) for _, thread in ran[2:])

    def test_an_inline_pack_past_its_deadline_times_out_later_siblings(self):
        now = [0.0]

        def tick():
            now[0] += 1.0

        ran = []
        here = threading.current_thread().name
        server = staged_server({"tick": recording(ran, tick)})
        with server.running():
            measure(server, "tick", 3)
            del ran[:]
            context = MessageContext.for_envelope(Envelope())
            context.deadline = Deadline(0.5, clock=lambda: now[0])
            slots = server._execute(entries("tick", 3), context)
        # as Fig. 1: the deadline is read again after every sibling
        assert ran == [("p0", here)]
        assert faultcodes(slots) == [None] + ["SOAP-ENV:Server.Timeout"] * 2
        assert all(SoapFault.from_element(slot).is_retryable() for slot in slots[1:])
        assert counters(server)["resilience.deadline_expired"] == 2

    def test_an_undeployed_name_is_never_inline_and_adds_no_state(self):
        ran = []
        server = staged_server({"echo": recording(ran)})
        with server.running():
            staged = measure(server, "echo", 3)
            wait_for(lambda: stage_runs(server) >= staged)
            snapshot = server.registry.snapshot()
            names = {kind: set(snapshot[kind]) for kind in ("counters", "gauges", "sketches")}
            records = dict(server.container.operation_metrics)
            del ran[:]
            made_up = [
                serialize_rpc_request(NS, "madeUp", {"payload": "x"}),
                serialize_rpc_request("urn:svc:nowhere", "echo", {"payload": "y"}),
            ]
            slots = execute(server, entries("echo", 2) + made_up)
            assert faultcodes(slots) == [None, None, "SOAP-ENV:Client", "SOAP-ENV:Client"]
            assert len(ran) == 2 and all(on_stage(thread) for _, thread in ran)
            execute(server, made_up)
            wait_for(lambda: stage_runs(server) >= staged + 6)
            assert stage_runs(server) == staged + 6
        snapshot = server.registry.snapshot()
        assert {kind: set(snapshot[kind]) for kind in names} == names
        assert dict(server.container.operation_metrics) == records

    def test_the_handoff_gauge_is_set_after_the_first_staged_pack(self):
        server = staged_server({"echo": recording([])})
        stage = server.app_stage
        with server.running():
            execute(server, entries("echo", 1))  # runs here: nothing handed over
            assert stage.handoff_s is None
            assert gauges(server)["stage.application.handoff_s"] == 0
            execute(server, entries("echo", 2))
        assert stage.handoff_s > 0
        assert gauges(server)["stage.application.handoff_s"] == stage.handoff_s


class TestShutdown:
    def test_pack_in_flight_is_answered_when_the_stage_shuts_down(self):
        def slow(payload: str) -> str:
            time.sleep(0.3)
            return payload

        server = staged_server({"slow": slow}, app_workers=1)
        outcome = {}

        def protocol_thread():
            outcome["slots"] = execute(server, entries("slow", 3))

        thread = threading.Thread(target=protocol_thread, daemon=True)
        thread.start()
        time.sleep(0.1)  # the one worker is inside the first entry
        server.app_stage.shutdown()
        thread.join(2)
        assert not thread.is_alive(), "the protocol thread slept through shutdown"
        slots = outcome["slots"]
        assert len(slots) == 3
        ran = [slot for slot in slots if slot.local_name == "slowResponse"]
        assert len(ran) <= 1
        assert faultcodes(slots[len(ran):]) == ["SOAP-ENV:Server.Busy"] * (3 - len(ran))

    def test_pack_after_shutdown_is_busy_not_lost(self):
        def echo(payload: str) -> str:
            return payload

        server = staged_server({"echo": echo})
        server.app_stage.shutdown()
        slots = execute(server, entries("echo", 4))
        assert faultcodes(slots) == ["SOAP-ENV:Server.Busy"] * 4


def test_a_shed_one_way_message_counts_one_shed():
    gate = threading.Event()

    def hold(payload: str) -> str:
        gate.wait(10)
        return payload

    server = staged_server({"hold": hold}, app_workers=1, app_queue_limit=1)
    with server.running():
        try:
            # one cast on the worker, one waiting: the stage is full
            execute(server, [mark_one_way(entry) for entry in entries("hold", 2)])
            envelope = build_request_envelope(NS, "hold", {"payload": "late"})
            mark_one_way(envelope.body_entries[0])
            response = server.endpoint(HttpRequest(
                "POST",
                "/services/BatchService",
                Headers({"Content-Type": SOAP_CONTENT_TYPE}),
                envelope.to_bytes(),
            ))
            assert response.status == 503
            assert counters(server)["resilience.shed"] == 1
        finally:
            gate.set()  # before the stop, which joins the held worker


@pytest.mark.parametrize("architecture", ["common", "staged"])
def test_packs_leave_no_garbage_cycles(architecture):
    def echo(payload: str) -> str:
        return payload

    server = staged_server({"echo": echo}, architecture=architecture)
    requests = [
        packed_request(entries("echo", 8) + [mark_one_way(e) for e in entries("echo", 2)])
        for _ in range(20)
    ]
    with server.running():
        server.endpoint(requests[0])  # warm: first-sight caches
        time.sleep(0.05)
        gc.disable()
        try:
            gc.collect()
            for request in requests:
                assert server.endpoint(request).status == 200
            time.sleep(0.05)  # let the unawaited casts finish
            assert gc.collect() == 0
        finally:
            gc.enable()
