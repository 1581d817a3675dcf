"""Testbeds and client strategies for the paper's experiments.

:func:`echo_testbed` deploys the Echo service on a chosen transport
profile and server architecture; :func:`make_invoker` instantiates the
three client strategies of §4.1:

* ``no-optimization``  — Serial Service Requests in Multiple SOAP Messages
* ``multiple-threads`` — Parallel Service Requests in Multiple SOAP Messages
* ``our-approach``     — Parallel Service Requests in One SOAP Message (SPI)
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator

from repro.apps.echo import ECHO_NS, ECHO_SERVICE, make_echo_payload, make_echo_service
from repro.client.cache import ResponseCache
from repro.client.config import ClientConfig, build_proxy
from repro.client.invoker import (
    Call,
    Invoker,
    KeepAliveSerialInvoker,
    SerialInvoker,
    ThreadedInvoker,
)
from repro.client.proxy import ServiceProxy
from repro.core.batch import PackedInvoker
from repro.core.dispatcher import spi_server_handlers
from repro.errors import ReproError
from repro.http.compression import CompressionPolicy
from repro.resilience.policy import CallPolicy
from repro.obs.trace import Observability, Tracer
from repro.server import ServerConfig, build_server
from repro.server.handlers import HandlerChain
from repro.soap.wssecurity import Credentials, attach_security_header
from repro.transport.base import Transport
from repro.transport.inproc import InProcTransport
from repro.transport.netprofile import PAPER_LAN, WAN, NetworkProfile
from repro.transport.shaped import ShapedTransport
from repro.transport.tcp import TcpTransport

APPROACHES = ("no-optimization", "multiple-threads", "our-approach")

PROFILES: dict[str, NetworkProfile | None] = {
    "inproc": None,
    "loopback": None,
    "lan": PAPER_LAN,
    "wan": WAN,
}


def build_transport(profile: str) -> Transport:
    """One of: inproc (queues), loopback (bare TCP), lan/wan (shaped TCP)."""
    if profile == "inproc":
        return InProcTransport()
    if profile == "loopback":
        return TcpTransport()
    network = PROFILES.get(profile)
    if network is None:
        raise ReproError(f"unknown transport profile '{profile}'")
    return ShapedTransport(TcpTransport(), network)


@dataclass(slots=True)
class Testbed:
    """A running echo deployment + how to reach it."""

    transport: Transport
    server: object  # SoapServer
    address: object
    profile: str
    architecture: str
    observability: Observability | None = None

    def make_proxy(
        self,
        *,
        reuse_connections: bool = False,
        tracer: Tracer | None = None,
        response_cache: ResponseCache | None = None,
        accept_encoding: str | None = None,
        request_compression: CompressionPolicy | None = None,
    ) -> ServiceProxy:
        """A fresh client proxy for this deployment.

        When the testbed carries an :class:`Observability` and no
        explicit ``tracer`` is given, the proxy shares the testbed's
        tracer so client and server spans land in the same trace.
        ``response_cache`` (client-side parameterized response cache),
        ``accept_encoding`` (offer response compression) and
        ``request_compression`` (compress request bodies) pass straight
        through to :class:`~repro.client.config.ClientConfig`.
        """
        if tracer is None and self.observability is not None:
            tracer = self.observability.tracer
        return build_proxy(ClientConfig(
            transport=self.transport,
            address=self.address,
            namespace=ECHO_NS,
            service_name=ECHO_SERVICE,
            reuse_connections=reuse_connections,
            tracer=tracer,
            response_cache=response_cache,
            accept_encoding=accept_encoding,
            request_compression=request_compression,
        ))


@contextlib.contextmanager
def echo_testbed(
    *,
    profile: str = "lan",
    architecture: str = "staged",
    spi: bool = True,
    backend: str = "threaded",
    app_workers: int = 32,
    app_queue_limit: int | None = None,
    observability: Observability | None = None,
    compression: CompressionPolicy | None = None,
) -> Iterator[Testbed]:
    """Deploy the Echo service and yield a ready Testbed.

    ``backend``: protocol-stage I/O — ``"threaded"`` (one handler
    thread per connection) or ``"evented"`` (the C10K selectors loop;
    needs a socket profile, i.e. not ``"inproc"``).

    ``observability``: threads an obs subsystem through the server
    (spans, /metrics, /healthz); the server counts into its registry.

    ``app_queue_limit`` (staged only): bound on the application stage's
    backlog; entries beyond it shed with ``Server.Busy``.

    ``compression``: a negotiated content-coding policy for response
    bodies.
    """
    transport = build_transport(profile)
    address = "echo-bench" if profile == "inproc" else ("127.0.0.1", 0)
    chain = HandlerChain(spi_server_handlers()) if spi else None

    if architecture not in ("common", "staged"):
        raise ReproError(f"unknown architecture '{architecture}'")
    server = build_server(ServerConfig(
        services=[make_echo_service()],
        architecture=architecture,
        backend=backend,
        transport=transport,
        address=address,
        chain=chain,
        app_workers=app_workers,
        app_queue_limit=app_queue_limit,
        observability=observability,
        compression=compression,
    ))

    bound = server.start()
    try:
        yield Testbed(transport, server, bound, profile, architecture, observability)
    finally:
        server.stop()


#: Bench-wide default: generous per-attempt bound, no retries, so a hung
#: run fails loudly instead of hanging CI.
BENCH_POLICY = CallPolicy(timeout=300)


def make_invoker(
    approach: str, proxy: ServiceProxy, *, policy: CallPolicy | None = None
) -> Invoker:
    """Instantiate one of the §4.1 client strategies."""
    if approach == "no-optimization":
        return SerialInvoker(proxy, policy=policy)
    if approach == "serial-keepalive":
        return KeepAliveSerialInvoker(proxy, policy=policy)
    if approach == "multiple-threads":
        return ThreadedInvoker(proxy, policy=policy)
    if approach == "our-approach":
        return PackedInvoker(proxy, policy=policy)
    raise ReproError(f"unknown approach '{approach}'")


def echo_calls(m: int, n: int) -> list[Call]:
    """M echo requests, each carrying an N-character payload."""
    payload = make_echo_payload(n)
    return Call.many("echo", [{"payload": payload}] * m)


def run_point(testbed: Testbed, approach: str, m: int, n: int) -> list:
    """Execute one experiment point: M requests of N bytes, one strategy.

    Returns the echoed results (validated by the caller or tests).
    Each point uses a fresh non-pooled proxy so connection counts match
    the paper's model: M connections for the two baselines, one for the
    packed approach.
    """
    proxy = testbed.make_proxy(reuse_connections=False)
    invoker = make_invoker(approach, proxy)
    try:
        return invoker.invoke_all(echo_calls(m, n), BENCH_POLICY)
    finally:
        proxy.close()


BENCH_CREDENTIALS = Credentials("bench-user", b"bench-secret-key")


def secured_proxy(testbed: Testbed) -> ServiceProxy:
    """A proxy whose every request carries a full-size WS-Security
    header (UsernameToken + X.509 BinarySecurityToken + XML-DSig
    Signature, ~3.4 KB) — used by the header-overhead ablation.  The
    echo server does not verify the token (the experiment is about
    header *bytes*, as in §4.2's WS-Security argument), but the header
    is real and signed."""
    proxy = testbed.make_proxy()
    # Pre-build one header per proxy; PackBatch/ServiceProxy copy it
    # per message, so each message pays the full header size.
    from repro.soap.envelope import Envelope
    from repro.xmlcore.tree import Element

    probe = Envelope()
    probe.add_body(Element("probe"))
    header = attach_security_header(
        probe, BENCH_CREDENTIALS, include_certificate=True
    )
    # remove mustUnderstand so the echo server doesn't reject it
    from repro.soap.constants import MUST_UNDERSTAND_ATTR

    header.pop_attribute(MUST_UNDERSTAND_ATTR)
    proxy.extra_headers = [header]
    return proxy
