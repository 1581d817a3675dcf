"""End-to-end resilience: deadlines, shedding and retry convergence.

Exercises the ISSUE's acceptance scenarios over real wire bytes:

* a short client deadline turns unfinished pack entries into retryable
  ``Server.Timeout`` faults instead of hanging the protocol thread;
* a saturated application stage sheds pack entries with per-entry
  ``Server.Busy`` faults while siblings still answer, and sheds whole
  one-way messages with HTTP 503;
* a ``CallPolicy`` retry budget converges through a chaos transport
  dropping requests, with retry/shed counters visible in the metrics
  registry and at ``GET /metrics``.

Every scenario runs on both protocol backends: the resilience ladder
is a contract of the server, not of one I/O discipline.  The threaded
backend keeps the in-process transport (byte-for-byte the historical
suite); the evented backend needs real sockets, so it runs on loopback
TCP.
"""

import json
import time

import pytest

from repro.apps.echo import ECHO_NS, ECHO_SERVICE, make_echo_service
from repro.client.proxy import ServiceProxy
from repro.core.batch import PackBatch
from repro.core.dispatcher import spi_server_handlers
from repro.core.oneway import mark_one_way
from repro.errors import SoapFaultError
from repro.http.connection import HttpConnection
from repro.http.message import Headers, HttpRequest
from repro.obs import Observability
from repro.resilience.policy import CallPolicy
from repro.server.handlers import HandlerChain
from repro.soap.serializer import build_request_envelope
from ..transport.chaos import ChaosTransport
from repro.transport.inproc import InProcTransport
from repro.transport.tcp import TcpTransport
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy


@pytest.fixture(params=["threaded", "evented"])
def backend(request):
    """Both protocol backends must satisfy the same resilience ladder."""
    return request.param


def make_transport(backend):
    return InProcTransport() if backend == "threaded" else TcpTransport()


def bind_address(backend):
    return "resilience-e2e" if backend == "threaded" else ("127.0.0.1", 0)


def start_server(
    transport,
    backend,
    *,
    architecture="staged",
    app_workers=4,
    app_queue_limit=None,
    observability=None,
):
    server = build_server(ServerConfig(
        services=[make_echo_service()],
        architecture=architecture,
        backend=backend,
        transport=transport,
        address=bind_address(backend),
        chain=HandlerChain(spi_server_handlers()),
        app_workers=app_workers,
        app_queue_limit=app_queue_limit,
        observability=observability,
    ))
    address = server.start()
    return server, address


def make_proxy(transport, address, *, policy=None, tracer=None):
    return build_proxy(ClientConfig(
        transport,
        address,
        namespace=ECHO_NS,
        service_name=ECHO_SERVICE,
        policy=policy,
        tracer=tracer,
    ))


class TestDeadlineEnforcement:
    def test_staged_unfinished_entries_get_timeout_faults(self, backend):
        """Single worker + a 500ms op + a 250ms budget: the protocol
        thread answers at the deadline with per-entry timeout faults
        rather than waiting out the slow operation."""
        transport = make_transport(backend)
        obs = Observability()
        server, address = start_server(
            transport, backend, app_workers=1, observability=obs
        )
        try:
            proxy = make_proxy(transport, address)
            started = time.monotonic()
            batch = PackBatch(proxy, policy=CallPolicy(timeout=0.25))
            slow = batch.call("delayedEcho", payload="slow", delay_ms=500)
            fast = [batch.call("echo", payload=f"q{i}") for i in range(3)]
            batch.flush()
            elapsed = time.monotonic() - started

            assert elapsed < 2.0  # answered near the deadline, not after 500ms+
            for future in [slow, *fast]:
                assert future.done()
            error = slow.exception(timeout=5)
            assert isinstance(error, SoapFaultError)
            assert error.faultcode == "Server.Timeout"
            assert error.is_retryable()
            assert obs.registry.counter("resilience.deadline_expired").value >= 1
            proxy.close()
        finally:
            server.stop()

    def test_common_arch_skips_entries_past_the_deadline(self, backend):
        """Sequential execution (Fig. 1): the first entry eats the whole
        budget, so later entries are skipped with Server.Timeout — they
        never execute."""
        transport = make_transport(backend)
        server, address = start_server(transport, backend, architecture="common")
        try:
            proxy = make_proxy(transport, address)
            batch = PackBatch(proxy, policy=CallPolicy(timeout=0.2))
            first = batch.call("delayedEcho", payload="hog", delay_ms=300)
            second = batch.call("echo", payload="late-a")
            third = batch.call("echo", payload="late-b")
            batch.flush()

            # the hog started inside the budget, so it completes...
            assert first.result(timeout=5) == "hog"
            # ...but its siblings found the deadline already expired
            for future in (second, third):
                error = future.exception(timeout=5)
                assert isinstance(error, SoapFaultError)
                assert error.faultcode == "Server.Timeout"
                assert error.is_retryable()
            proxy.close()
        finally:
            server.stop()


class TestLoadShedding:
    def test_saturated_stage_sheds_entries_but_siblings_answer(self, backend):
        transport = make_transport(backend)
        obs = Observability()
        server, address = start_server(
            transport, backend, app_workers=1, app_queue_limit=1,
            observability=obs,
        )
        try:
            proxy = make_proxy(transport, address)
            batch = PackBatch(proxy)
            futures = [
                batch.call("delayedEcho", payload=f"p{i}", delay_ms=150)
                for i in range(6)
            ]
            batch.flush()

            outcomes = [f.exception(timeout=10) for f in futures]
            busy = [e for e in outcomes if e is not None]
            served = [f for f, e in zip(futures, outcomes) if e is None]
            # one entry on the worker, one in the queue, the rest shed
            assert len(busy) >= 4
            assert served  # partial success: at least one sibling answered
            for error in busy:
                assert isinstance(error, SoapFaultError)
                assert error.faultcode == "Server.Busy"
                assert error.is_retryable()
            for future in served:
                assert future.result(timeout=10).startswith("p")
            assert obs.registry.counter("resilience.shed").value >= 4
            assert obs.registry.counter("stage.application.rejected").value >= 4
            proxy.close()
        finally:
            server.stop()

    def test_oneway_shed_returns_http_503(self, backend):
        """A whole-message shed is visible at the HTTP layer: a one-way
        request against a saturated stage gets 503 + Server.Busy."""
        transport = make_transport(backend)
        obs = Observability()
        server, address = start_server(
            transport, backend, app_workers=1, app_queue_limit=1,
            observability=obs,
        )
        try:
            proxy = make_proxy(transport, address)

            def prime(tag):
                # fire-and-forget casts occupy the worker without
                # holding a protocol thread
                batch = PackBatch(proxy)
                for i in range(2):
                    batch.cast("delayedEcho", payload=f"{tag}{i}", delay_ms=800)
                batch.flush()

            prime("a")  # the worker picks one of these up...
            time.sleep(0.15)
            prime("b")  # ...so these can only queue; the backlog is full
            time.sleep(0.05)

            envelope = build_request_envelope(
                ECHO_NS, "echo", {"payload": "shed me"}
            )
            mark_one_way(envelope.body_entries[0])
            with HttpConnection(transport, address) as conn:
                response = conn.request(
                    HttpRequest(
                        "POST",
                        proxy.path,
                        Headers({"Host": "t", "SOAPAction": '"echo"'}),
                        envelope.to_bytes(),
                    )
                )
            assert response.status == 503
            assert b"Server.Busy" in response.body
            proxy.close()
        finally:
            server.stop()

    def test_shed_counters_visible_at_metrics_endpoint(self, backend):
        transport = make_transport(backend)
        obs = Observability()
        server, address = start_server(
            transport, backend, app_workers=1, app_queue_limit=1,
            observability=obs,
        )
        try:
            proxy = make_proxy(transport, address)
            batch = PackBatch(proxy)
            for i in range(6):
                batch.call("delayedEcho", payload=f"m{i}", delay_ms=100)
            batch.flush()
            with HttpConnection(transport, address) as conn:
                response = conn.request(
                    HttpRequest("GET", "/metrics", Headers({"Host": "t"}))
                )
            assert response.status == 200
            counters = json.loads(response.body)["counters"]
            assert counters.get("resilience.shed", 0) >= 1
            assert counters.get("stage.application.rejected", 0) >= 1
            proxy.close()
        finally:
            server.stop()


class TestRetryConvergence:
    def test_policy_converges_over_chaos_with_visible_counters(self, backend):
        """The ISSUE's acceptance scenario: CallPolicy(retries=...)
        against a transport dropping ~30% of requests converges, and the
        client's retry counter records the recoveries."""
        chaos = ChaosTransport(make_transport(backend), drop_rate=0.3, seed=2026)
        obs = Observability()
        client_obs = Observability()
        server, address = start_server(
            chaos.base, backend, app_workers=4, observability=obs
        )
        try:
            policy = CallPolicy(retries=4, backoff_base=0.001, backoff_max=0.005)
            proxy = make_proxy(chaos, address, policy=policy, tracer=client_obs.tracer)
            results = [proxy.call("echo", payload=f"c{i}") for i in range(12)]
            assert results == [f"c{i}" for i in range(12)]
            assert chaos.stats.dropped > 0
            assert proxy.retries >= chaos.stats.dropped
            assert (
                client_obs.registry.counter("client.retries").value
                == proxy.retries
            )
            proxy.close()
        finally:
            server.stop()

    def test_retries_also_absorb_real_server_sheds(self, backend):
        """Busy faults from a genuinely saturated stage are retryable:
        a packed batch retried under policy eventually lands everything."""
        transport = make_transport(backend)
        server, address = start_server(
            transport, backend, app_workers=1, app_queue_limit=1
        )
        try:
            proxy = make_proxy(transport, address)
            pending = {f"r{i}" for i in range(6)}
            for _ in range(12):  # bounded retry loop driven by the client
                batch = PackBatch(proxy)
                futures = {
                    payload: batch.call("delayedEcho", payload=payload, delay_ms=20)
                    for payload in sorted(pending)
                }
                batch.flush()
                for payload, future in futures.items():
                    if future.exception(timeout=10) is None:
                        pending.discard(payload)
                if not pending:
                    break
                time.sleep(0.05)
            assert not pending
            proxy.close()
        finally:
            server.stop()
