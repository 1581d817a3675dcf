"""The application stage runs a pack as one batch.

Figure 2's fan-out hands the stage one batch per pack, not one task per
entry: workers claim entries one at a time and wake at most one more
worker while some stay unclaimed.  These tests pin what that must keep
from the per-entry design — full overlap of blocking entries, per-entry
admission against ``app_queue_limit``, per-entry stage accounting — and
what it must add: a stage that shuts down under a pack answers the
entries it never ran instead of leaving the protocol thread asleep, and
a pack leaves no garbage cycle behind.
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
from repro.server import ServerConfig, build_server
from repro.server.handlers import HandlerChain, MessageContext
from repro.server.service import service_from_functions
from repro.soap.constants import SOAP_CONTENT_TYPE
from repro.soap.envelope import Envelope
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

        def echo(payload: str) -> str:
            ran.append((payload, threading.current_thread().name))
            return payload

        server = staged_server({"echo": echo})
        with server.running():
            assert execute(server, entries("echo", 1))  # M = 1 stays inline
            assert stage_runs(server) == 0
            for count in (2, 5, 32):
                execute(server, entries("echo", count))
            wait_for(lambda: stage_runs(server) >= 39)
            assert stage_runs(server) == 39
            casts = [
                mark_one_way(serialize_rpc_request(NS, "echo", {"payload": f"cast{i}"}))
                for i in range(3)
            ]
            execute(server, casts + entries("echo", 2))
            wait_for(lambda: stage_runs(server) >= 44)
        assert stage_runs(server) == 44
        assert counters(server)["stage.application.failures"] == 0
        # every awaited and every one-way entry ran on a stage worker
        on_stage = [p for p, thread in ran if thread.startswith("stage-application")]
        assert len(ran) == 45 and len(on_stage) == 44
        assert {"cast0", "cast1", "cast2"} <= set(on_stage)


class TestStress:
    def test_concurrent_packs_keep_admission_and_accounting_exact(self):
        # more workers than cores and a short switch interval: a lost
        # update to the admission count or the stage stats shows up as
        # a wrong total, or as capacity that never comes back
        workers, limit, senders, packs = 8, 4, 12, 15

        def echo(payload: str) -> str:
            return payload

        server = staged_server({"echo": echo}, app_workers=workers, app_queue_limit=limit)
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
                ran = len(codes) - shed
                wait_for(lambda: stage_runs(server) >= ran)
                # no capacity leaked: once the stage is idle, a pack of
                # exactly workers + limit entries is admitted whole
                tail = execute(server, entries("echo", workers + limit))
        finally:
            sys.setswitchinterval(interval)

        assert faultcodes(tail) == [None] * (workers + limit)
        ran += workers + limit
        wait_for(lambda: stage_runs(server) >= ran)
        assert stage_runs(server) == ran
        assert counters(server)["stage.application.rejected"] == shed
        assert counters(server)["resilience.shed"] == shed


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
    try:
        with server.running():
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
        gate.set()


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
