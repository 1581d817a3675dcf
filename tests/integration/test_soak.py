"""Soak tests: sustained mixed load against one staged server, and a
thousand keep-alive connections held at once by the evented backend.

Eight client threads hammer the server with a mixture of plain calls,
packed batches, WSDL fetches and deliberately faulting requests, then
the test cross-checks every counter in the stack for consistency.
"""

import random
import resource
import threading
import time

import pytest

from repro.apps.echo import ECHO_NS, make_echo_service
from repro.bench.workloads import echo_testbed
from repro.client.proxy import ServiceProxy
from repro.core.batch import PackBatch
from repro.core.dispatcher import spi_server_handlers
from repro.errors import SoapFaultError
from repro.http.message import Headers, HttpRequest
from repro.http.parser import ChannelReader, read_response
from repro.server.handlers import HandlerChain, PackMetricsHandler
from repro.soap.constants import SOAP_CONTENT_TYPE
from repro.soap.serializer import build_request_envelope
from repro.transport.inproc import InProcTransport
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy

CLIENTS = 8
ITERATIONS = 12


@pytest.fixture(scope="module")
def soak_env():
    transport = InProcTransport()
    metrics = PackMetricsHandler()
    server = build_server(ServerConfig(services=[make_echo_service()], architecture="staged", transport=transport, address="soak", chain=HandlerChain([metrics, *spi_server_handlers()]), app_workers=8))
    with server.running() as address:
        yield transport, address, server, metrics


def test_soak_mixed_load(soak_env):
    transport, address, server, metrics = soak_env
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
    stats = server.stats()
    expected_messages = counters["plain"] + counters["packed_msgs"] + counters["faults"]
    assert stats["endpoint"]["soap_messages"] == expected_messages
    assert stats["endpoint"]["wsdl_requests"] == counters["wsdl"]
    expected_entries = (
        counters["plain"] + counters["packed_calls"] + counters["faults"]
    )
    assert stats["container"]["entries_executed"] == expected_entries
    assert stats["container"]["faults"] == counters["faults"]
    snap = metrics.snapshot()
    assert snap["packed_messages"] == counters["packed_msgs"]
    assert snap["plain_messages"] == counters["plain"] + counters["faults"]
    # every packed message fanned out through the application stage
    assert stats["app_stage"]["events"] == counters["packed_calls"]


class TestLargeBatchBoundaries:
    """Batches near the pack-size limit through the full stack."""

    def test_512_entry_batch(self, soak_env):
        transport, address, server, _ = soak_env
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
        transport, address, _, _ = soak_env
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
        http = bed.server.http
        channels = []
        try:
            while len(channels) < n:
                for _ in range(min(C10K_WAVE, n - len(channels))):
                    channels.append(bed.transport.connect(bed.address, timeout=30))
                give_up = time.monotonic() + 30
                while http.connections_accepted < len(channels):
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
    assert http.connections_accepted == n
    assert http.max_concurrent_connections == n
    assert http.requests_served == C10K_ROUNDS * n
