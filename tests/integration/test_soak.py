"""Soak tests: sustained mixed load against one staged server, and a
thousand keep-alive connections held at once by the evented backend.

Eight client threads hammer the server with a mixture of plain calls,
packed batches, WSDL fetches and deliberately faulting requests, then
the test cross-checks every counter in the stack for consistency.
"""

import random
import resource
import sys
import threading
import time

import pytest

from repro.apps.echo import ECHO_NS, make_echo_service
from repro.bench.workloads import echo_calls, echo_testbed
from repro.client.proxy import ServiceProxy
from repro.core.batch import PackBatch, PackedInvoker
from repro.core.dispatcher import spi_server_handlers
from repro.errors import SoapFaultError
from repro.http.message import Headers, HttpRequest
from repro.http.parser import ChannelReader, read_response
from repro.server.handlers import HandlerChain
from repro.soap.constants import SOAP_CONTENT_TYPE
from repro.soap.serializer import build_request_envelope
from repro.transport.inproc import InProcTransport
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy

from ..metrics import counters as counts, gauges, sketches

CLIENTS = 8
ITERATIONS = 12


@pytest.fixture(scope="module")
def soak_env():
    transport = InProcTransport()
    server = build_server(ServerConfig(services=[make_echo_service()], architecture="staged", transport=transport, address="soak", chain=HandlerChain(spi_server_handlers()), app_workers=8))
    with server.running() as address:
        yield transport, address, server


def test_soak_mixed_load(soak_env):
    transport, address, server = soak_env
    errors: list[str] = []
    counters = {"plain": 0, "packed_msgs": 0, "packed_calls": 0, "faults": 0, "wsdl": 0}
    lock = threading.Lock()

    def client(seed: int) -> None:
        rng = random.Random(seed)
        proxy = build_proxy(ClientConfig(
            transport, address, namespace=ECHO_NS, service_name="EchoService",
            reuse_connections=True,
        ))
        try:
            for i in range(ITERATIONS):
                choice = rng.random()
                if choice < 0.4:
                    payload = f"{seed}-{i}"
                    if proxy.call("echo", payload=payload) != payload:
                        errors.append(f"plain echo mismatch for {payload}")
                    with lock:
                        counters["plain"] += 1
                elif choice < 0.75:
                    size = rng.randint(2, 6)
                    batch = PackBatch(proxy)
                    futures = [
                        batch.call("echo", payload=f"{seed}-{i}-{j}")
                        for j in range(size)
                    ]
                    batch.flush()
                    for j, future in enumerate(futures):
                        if future.result(timeout=30) != f"{seed}-{i}-{j}":
                            errors.append(f"packed mismatch {seed}-{i}-{j}")
                    with lock:
                        counters["packed_msgs"] += 1
                        counters["packed_calls"] += size
                elif choice < 0.9:
                    try:
                        proxy.call("definitelyNotAnOperation")
                        errors.append("expected fault did not occur")
                    except SoapFaultError:
                        pass
                    with lock:
                        counters["faults"] += 1
                else:
                    if "EchoService" not in proxy.fetch_wsdl():
                        errors.append("wsdl fetch broken")
                    with lock:
                        counters["wsdl"] += 1
        finally:
            proxy.close()

    threads = [threading.Thread(target=client, args=(seed,)) for seed in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "soak clients hung"
    assert errors == []

    # cross-check the stack's own accounting against the client's
    server_counts, server_sketches = counts(server), sketches(server)
    expected_messages = counters["plain"] + counters["packed_msgs"] + counters["faults"]
    assert server_counts["soap.messages"] == expected_messages
    assert server_counts["soap.wsdl_requests"] == counters["wsdl"]
    expected_entries = (
        counters["plain"] + counters["packed_calls"] + counters["faults"]
    )
    degree = server_sketches["soap.pack_degree"]
    assert degree["count"] == expected_messages
    assert degree["sum"] == expected_entries
    assert server_counts["container.faults"] == counters["faults"]
    assert server_counts["soap.packed_messages"] == counters["packed_msgs"]
    # every packed message fanned out through the application stage (a
    # worker records its entry just after the caller was let go)
    give_up = time.monotonic() + 5
    while (
        sketches(server)["stage.application.service_time_s"]["count"]
        < counters["packed_calls"]
        and time.monotonic() < give_up
    ):
        time.sleep(0.005)
    stage = sketches(server)["stage.application.service_time_s"]
    assert stage["count"] == counters["packed_calls"]


@pytest.mark.parametrize("backend", ["threaded", "evented"])
def test_counts_are_exact_under_concurrent_keepalive_clients(backend):
    """Every connection's thread (or handler worker) counts into the
    same instruments at once; with a short switch interval a lost
    read-modify-write shows up as a total below N x K."""
    clients, packs = 8, 25
    failures = []
    with echo_testbed(profile="loopback", backend=backend) as bed:
        start_line = threading.Barrier(clients, timeout=10)

        def client():
            proxy = bed.make_proxy(reuse_connections=True)
            invoker = PackedInvoker(proxy)
            try:
                start_line.wait()
                for _ in range(packs):
                    calls = echo_calls(2, 8)
                    if invoker.invoke_all(calls) != [c.params["payload"] for c in calls]:
                        failures.append(calls)
            finally:
                proxy.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    server_counts = counts(bed.server)
    assert server_counts["soap.messages"] == clients * packs
    assert sketches(bed.server)["soap.pack_degree"]["count"] == clients * packs
    assert server_counts["http.requests"] == clients * packs
    assert server_counts["http.connections.accepted"] == clients


class TestLargeBatchBoundaries:
    """Batches near the pack-size limit through the full stack."""

    def test_512_entry_batch(self, soak_env):
        transport, address, server = soak_env
        from repro.core.batch import PackBatch

        proxy = build_proxy(ClientConfig(
            transport, address, namespace=ECHO_NS, service_name="EchoService"
        ))
        try:
            batch = PackBatch(proxy)
            futures = [batch.call("echo", payload=str(i)) for i in range(512)]
            batch.flush()
            for i, future in enumerate(futures):
                assert future.result(timeout=120) == str(i)
        finally:
            proxy.close()

    def test_oversized_batch_rejected_client_side(self, soak_env):
        transport, address, _ = soak_env
        from repro.core.batch import PackBatch
        from repro.core.packformat import MAX_PACKED_REQUESTS
        from repro.errors import PackError

        proxy = build_proxy(ClientConfig(
            transport, address, namespace=ECHO_NS, service_name="EchoService"
        ))
        try:
            batch = PackBatch(proxy)
            futures = [
                batch.call("echo", payload="x")
                for _ in range(MAX_PACKED_REQUESTS + 1)
            ]
            batch.flush()
            # assembly fails before anything is sent; every future fails
            assert all(
                isinstance(f.exception(timeout=10), PackError) for f in futures
            )
        finally:
            proxy.close()


C10K_CONNECTIONS = 1000
#: connections opened per ramp-up wave: under the transport's listen
#: backlog (128), so no SYN waits out a retransmit
C10K_WAVE = 100
C10K_ROUNDS = 4


def test_evented_backend_holds_a_thousand_keepalive_connections():
    """N sockets stay open across four request rounds: every response is
    a 200, every socket was accepted once and all were open at once."""
    soft_limit, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    # both ends of every connection live in this process
    n = min(C10K_CONNECTIONS, (soft_limit - 256) // 2)
    request = HttpRequest(
        "POST",
        "/services/EchoService",
        Headers({"Host": "c10k", "Content-Type": SOAP_CONTENT_TYPE}),
        build_request_envelope(ECHO_NS, "echo", {"payload": "x" * 64}).to_bytes(),
    ).to_bytes()

    with echo_testbed(profile="loopback", backend="evented") as bed:
        channels = []
        try:
            while len(channels) < n:
                for _ in range(min(C10K_WAVE, n - len(channels))):
                    channels.append(bed.transport.connect(bed.address, timeout=30))
                give_up = time.monotonic() + 30
                while counts(bed.server)["http.connections.accepted"] < len(channels):
                    assert time.monotonic() < give_up, "accepts fell behind a wave"
                    time.sleep(0.001)
            readers = [ChannelReader(channel) for channel in channels]
            statuses = []
            for _ in range(C10K_ROUNDS):
                for channel in channels:
                    channel.sendall(request)
                statuses.extend(read_response(reader).status for reader in readers)
        finally:
            for channel in channels:
                channel.close()

    assert statuses == [200] * (C10K_ROUNDS * n)
    assert counts(bed.server)["http.connections.accepted"] == n
    assert gauges(bed.server)["http.connections.max_active"] == n
    assert counts(bed.server)["http.requests"] == C10K_ROUNDS * n
