"""Integration tests: both server architectures over real transports."""

import threading
import time

import pytest

from repro.core.dispatcher import spi_server_handlers
from repro.core.oneway import mark_one_way
from repro.core.packformat import build_parallel_method
from repro.http.connection import HttpConnection
from repro.http.message import Headers, HttpRequest
from repro.obs import Observability
from repro.resilience.policy import Deadline
from repro.server.handlers import Handler, HandlerChain
from repro.soap.constants import SOAP_CONTENT_TYPE
from repro.soap.deserializer import parse_response_envelope
from repro.soap.envelope import Envelope
from repro.soap.serializer import build_request_envelope, serialize_rpc_request
from repro.server.service import service_from_functions
from repro.transport.inproc import InProcTransport
from repro.server import ServerConfig, build_server

from ..metrics import counters, sketches

NS = "urn:svc:echo"


def make_services():
    def echo(payload: str) -> str:
        return payload

    def slow_echo(payload: str) -> str:
        time.sleep(0.05)
        return payload

    return [
        service_from_functions(
            "EchoService", NS, {"echo": echo, "slowEcho": slow_echo}
        )
    ]


def call(transport, address, envelope: Envelope):
    request = HttpRequest(
        "POST",
        "/services/EchoService",
        Headers({"Content-Type": SOAP_CONTENT_TYPE}),
        envelope.to_bytes(),
    )
    with HttpConnection(transport, address) as conn:
        response = conn.request(request)
    return response


@pytest.fixture(params=["common", "staged"])
def server(request):
    transport = InProcTransport()
    srv = build_server(ServerConfig(
        services=make_services(),
        architecture=request.param,
        transport=transport,
        address="soap-server",
    ))
    with srv.running() as address:
        yield srv, transport, address


class TestBothArchitectures:
    def test_single_request(self, server):
        srv, transport, address = server
        response = call(
            transport, address, build_request_envelope(NS, "echo", {"payload": "hi"})
        )
        assert response.status == 200
        env = Envelope.parse(response.body, server=True)
        assert parse_response_envelope(env).value == "hi"

    def test_multi_entry_body_executes_all(self, server):
        srv, transport, address = server
        envelope = Envelope()
        for i in range(4):
            envelope.add_body(serialize_rpc_request(NS, "echo", {"payload": f"m{i}"}))
        response = call(transport, address, envelope)
        assert response.status == 200
        env = Envelope.parse(response.body, server=True)
        values = [e.require("return").text for e in env.body_entries]
        assert values == ["m0", "m1", "m2", "m3"]

    def test_concurrent_clients(self, server):
        srv, transport, address = server
        results = {}
        lock = threading.Lock()

        def worker(i):
            response = call(
                transport,
                address,
                build_request_envelope(NS, "echo", {"payload": f"c{i}"}),
            )
            env = Envelope.parse(response.body, server=True)
            with lock:
                results[i] = parse_response_envelope(env).value

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert results == {i: f"c{i}" for i in range(6)}

    def test_stats_exposed(self, server):
        srv, transport, address = server
        call(transport, address, build_request_envelope(NS, "echo", {"payload": "x"}))
        assert srv.architecture in ("common", "staged")
        assert sketches(srv)["soap.pack_degree"]["sum"] == 1
        assert counters(srv)["soap.messages"] == 1
        assert counters(srv)["http.connections.accepted"] == 1


class TestStagedConcurrency:
    def test_multi_entry_executes_concurrently(self):
        """M slow operations in one message should take ~1x the single
        operation time on the staged server (paper's server-side
        concurrency claim), not Mx."""
        transport = InProcTransport()
        srv = build_server(ServerConfig(services=make_services(), architecture="staged", transport=transport, address="staged", app_workers=8))
        with srv.running() as address:
            envelope = Envelope()
            for i in range(6):
                envelope.add_body(
                    serialize_rpc_request(NS, "slowEcho", {"payload": f"m{i}"})
                )
            start = time.monotonic()
            response = call(transport, address, envelope)
            elapsed = time.monotonic() - start
        assert response.status == 200
        # 6 x 0.05s serial would be >= 0.30s; concurrent should be well under
        assert elapsed < 0.22
        assert sketches(srv)["stage.application.service_time_s"]["count"] == 6

    def test_common_arch_is_serial(self):
        transport = InProcTransport()
        srv = build_server(ServerConfig(services=make_services(), architecture="common", transport=transport, address="common"))
        with srv.running() as address:
            envelope = Envelope()
            for i in range(4):
                envelope.add_body(
                    serialize_rpc_request(NS, "slowEcho", {"payload": f"m{i}"})
                )
            start = time.monotonic()
            call(transport, address, envelope)
            elapsed = time.monotonic() - start
        assert elapsed >= 0.2  # 4 x 0.05s, strictly sequential

    def test_staged_single_entry_stays_on_protocol_thread(self):
        transport = InProcTransport()
        srv = build_server(ServerConfig(services=make_services(), architecture="staged", transport=transport, address="fastpath"))
        with srv.running() as address:
            call(transport, address, build_request_envelope(NS, "echo", {"payload": "x"}))
        assert sketches(srv)["stage.application.service_time_s"]["count"] == 0

    def test_mixed_success_and_fault_entries(self):
        transport = InProcTransport()
        srv = build_server(ServerConfig(services=make_services(), architecture="staged", transport=transport, address="mixed"))
        with srv.running() as address:
            envelope = Envelope()
            envelope.add_body(serialize_rpc_request(NS, "echo", {"payload": "good"}))
            envelope.add_body(serialize_rpc_request(NS, "doesNotExist", {}))
            response = call(transport, address, envelope)
        env = Envelope.parse(response.body, server=True)
        assert len(env.body_entries) == 2
        tags = [e.local_name for e in env.body_entries]
        assert tags == ["echoResponse", "Fault"]


class _ExpireDeadline(Handler):
    """Swaps the request's deadline for one on a fake clock that has
    already run out — no sleeping, no race with the real clock."""

    def invoke_request(self, context):
        if context.deadline is not None:
            now = [100.0]
            context.deadline = Deadline(0.5, clock=lambda: now[0])
            now[0] += 1.0


class TestArchitectureParity:
    """Figure 1 and Figure 2 differ in *who runs* an entry, never in
    what the entry is answered with or how it is accounted."""

    @staticmethod
    def parity_services():
        def echo(payload: str) -> str:
            return payload

        def boom(payload: str) -> str:
            raise RuntimeError(f"cannot handle {payload!r}")

        notified = threading.Event()

        def notify(payload: str) -> str:
            notified.set()
            return payload

        def upper(payload: str) -> str:
            return payload.upper()

        service = service_from_functions(
            "ParityService", NS,
            {"echo": echo, "boom": boom, "notify": notify, "upper": upper},
        )
        return [service], notified

    @staticmethod
    def packed(entries, *, deadline_ms=None):
        envelope = Envelope()
        if deadline_ms is not None:
            from repro.resilience.deadline import deadline_header

            envelope.add_header(deadline_header(deadline_ms / 1000.0))
        envelope.add_body(build_parallel_method(entries))
        return HttpRequest(
            "POST",
            "/services/ParityService",
            Headers({"Content-Type": SOAP_CONTENT_TYPE}),
            envelope.to_bytes(),
        )

    def observe(self, architecture):
        """Both requests through one server; everything a client or an
        operator could tell the architectures apart by."""
        services, notified = self.parity_services()
        obs = Observability()
        server = build_server(ServerConfig(
            services=services,
            architecture=architecture,
            transport=InProcTransport(),
            address=f"parity-{architecture}",
            chain=HandlerChain([*spi_server_handlers(), _ExpireDeadline()]),
            observability=obs,
        ))
        duplicate = serialize_rpc_request(NS, "upper", {"payload": "a"})
        duplicate.append(duplicate.element_children()[0].copy())
        mixed = self.packed([
            serialize_rpc_request(NS, "echo", {"payload": "good"}),
            serialize_rpc_request(NS, "doesNotExist", {"payload": "x"}),
            serialize_rpc_request(NS, "boom", {"payload": "bad"}),
            mark_one_way(serialize_rpc_request(NS, "notify", {"payload": "cast"})),
            duplicate,
        ])
        expired = self.packed(
            [
                serialize_rpc_request(NS, "echo", {"payload": "late"}),
                mark_one_way(serialize_rpc_request(NS, "notify", {"payload": "late"})),
                serialize_rpc_request(NS, "upper", {"payload": "late"}),
            ],
            deadline_ms=500,
        )
        with server.running():
            mixed_response = server.endpoint(mixed)
            # the cast runs after the response on the staged server
            assert notified.wait(5)
            rollup = obs.registry.rollup(NS, "notify")
            give_up = time.monotonic() + 5
            while rollup.calls < 1 and time.monotonic() < give_up:
                time.sleep(0.005)
            notified.clear()
            expired_response = server.endpoint(expired)
            assert not notified.is_set()  # expired entries never run
        skipped = {
            name: counters(server)[name]
            for name in ("resilience.deadline_expired", "resilience.shed")
        }
        # fault classes seen per target (the EWMA values themselves
        # decay with wall time between the two observations)
        rollups = {
            (r.service, r.operation): (
                r.calls,
                r.faults,
                sorted(
                    name
                    for name, rate in r.snapshot()["error_rate_by_class"].items()
                    if rate > 0.0
                ),
            )
            for r in obs.registry.rollups()
        }
        return mixed_response, expired_response, skipped, rollups

    def test_common_and_staged_answer_and_account_identically(self):
        common = self.observe("common")
        staged = self.observe("staged")

        for ours, theirs in zip(common[:2], staged[:2]):
            assert ours.status == theirs.status == 200
            assert ours.body == theirs.body  # byte-identical envelopes
        assert common[2] == staged[2]
        assert common[3] == staged[3]

        # and the answers are the ones the protocol promises
        mixed, expired, skipped, rollups = staged
        slots = Envelope.parse(mixed.body, server=True).body_entries[0]
        assert [c.local_name for c in slots.element_children()] == [
            "echoResponse", "Fault", "Fault", "Accepted", "Fault"
        ]
        faults = [
            c.findtext("faultstring") for c in slots.element_children()
            if c.local_name == "Fault"
        ]
        assert "no such operation 'doesNotExist'" in faults[0]
        assert "cannot handle 'bad'" in faults[1]
        assert "duplicate parameter 'payload'" in faults[2]
        late = Envelope.parse(expired.body, server=True).body_entries[0]
        assert [c.findtext("faultcode") for c in late.element_children()] == [
            "SOAP-ENV:Server.Timeout"
        ] * 3
        assert skipped == {
            "resilience.deadline_expired": 3, "resilience.shed": 0
        }
        assert rollups[(NS, "doesNotExist")] == (1, 1, [])  # fatal
        # one answer, one expiry (a timeout is also retryable)
        assert rollups[(NS, "echo")] == (2, 1, ["retryable", "timeout"])
