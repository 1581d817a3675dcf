"""One :class:`ServerConfig` + :func:`build_server` for every deployment.

Every knob — architecture, I/O backend, observability, compression,
SLO budgets, the event-loop's connection/deadline bounds — lives in one
frozen dataclass, and one facade builds the deployment::

    from repro.server import ServerConfig, build_server

    server = build_server(ServerConfig(
        services=[service],
        architecture="staged",   # "common" | "staged"   (paper Fig. 1/2)
        backend="evented",       # "threaded" | "evented" (C10K loop)
        observability=Observability(),
    ))
    with server.running() as address:
        ...
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Sequence

from repro.http.compression import CompressionPolicy
from repro.http.core import HttpServerCore
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Observability
from repro.transport.base import Address, Transport

ARCHITECTURES = ("common", "staged")
BACKENDS = ("threaded", "evented")

DEFAULT_APP_WORKERS = 16


@dataclasses.dataclass(frozen=True)
class ServerConfig:
    """Everything needed to build one SOAP server deployment.

    Grouped by layer:

    * **application** — ``services``, ``chain``, ``architecture``,
      ``app_workers`` / ``app_queue_limit`` (the Fig. 2 application
      stage; the common architecture builds none);
    * **protocol** — ``backend``, ``transport``, ``address``,
      ``max_connections`` (threaded: accept gate; evented: the
      accept-overload shed budget), the ``idle_timeout`` read-idle
      deadline, and the evented-only ``protocol_workers`` /
      ``protocol_queue_limit`` handler stage plus ``write_timeout`` /
      ``handler_timeout`` loop deadlines;
    * **wire** — ``chunk_responses_over`` / ``chunk_size`` (HPDC-11
      chunking), ``compression``;
    * **observability** — ``observability``, ``slo_config``.
    """

    services: Sequence[Any] = ()
    architecture: str = "staged"
    backend: str = "threaded"
    transport: Transport | None = None
    address: Address = ("127.0.0.1", 0)
    chain: Any | None = None
    app_workers: int = DEFAULT_APP_WORKERS
    app_queue_limit: int | None = None
    protocol_workers: int = 8
    protocol_queue_limit: int | None = 1024
    max_connections: int | None = None
    idle_timeout: float | None = 30.0
    write_timeout: float | None = 30.0
    handler_timeout: float | None = 60.0
    chunk_responses_over: int | None = None
    chunk_size: int = 8192
    compression: CompressionPolicy | None = None
    observability: Observability | None = None
    slo_config: dict | None = None

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"architecture must be one of {ARCHITECTURES}, "
                f"not {self.architecture!r}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, not {self.backend!r}"
            )

    def replace(self, **changes: Any) -> "ServerConfig":
        """A copy with ``changes`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)


def build_server(config: ServerConfig):
    """The facade: one config in, one ready-to-``start()`` server out."""
    from repro.server.soap_server import SoapServer

    return SoapServer(config)


def build_http_server(
    app: Callable, config: ServerConfig, *, registry: MetricsRegistry | None = None
) -> HttpServerCore:
    """The HTTP layer for ``config``, counting into ``registry`` (by
    default ``config.observability``'s, else its own).

    Picks the backend class, and on the evented path installs the SOAP
    ``Server.Busy`` body for accept-overload 503s (the http layer
    cannot import soap, so the fault body is injected from here).
    """
    from repro.transport.tcp import TcpTransport

    transport = config.transport if config.transport is not None else TcpTransport()
    common = dict(
        transport=transport,
        address=config.address,
        chunk_responses_over=config.chunk_responses_over,
        chunk_size=config.chunk_size,
        max_connections=config.max_connections,
        observability=config.observability,
        registry=registry,
        compression=config.compression,
        slo_config=config.slo_config,
        idle_timeout=config.idle_timeout,
    )
    if config.backend == "evented":
        from repro.http.evented import EventedHttpServer

        server: HttpServerCore = EventedHttpServer(
            app,
            protocol_workers=config.protocol_workers,
            protocol_queue_limit=config.protocol_queue_limit,
            write_timeout=config.write_timeout,
            handler_timeout=config.handler_timeout,
            **common,
        )
    else:
        from repro.http.server import HttpServer

        server = HttpServer(app, **common)
    server.set_busy_body(*_busy_soap_body())
    return server


def _busy_soap_body() -> tuple[str, bytes]:
    """Content type + bytes of a canned ``Server.Busy`` fault envelope.

    Served on shed paths that never reach SOAP processing (accept
    overload, handler-stage saturation) so clients still classify the
    503 as a retryable :class:`~repro.errors.SoapFaultError`.
    """
    from repro.soap.constants import SOAP_CONTENT_TYPE
    from repro.soap.envelope import Envelope
    from repro.soap.fault import busy_fault

    envelope = Envelope()
    envelope.add_body(
        busy_fault("server busy: protocol stage shed the request").to_element()
    )
    return SOAP_CONTENT_TYPE, envelope.to_bytes()
