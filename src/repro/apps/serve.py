"""``python -m repro.apps.serve`` — run a demo SPI-enabled SOAP server.

Deploys every demo service (echo, weather, the travel trio, the credit
card service and the SPI plan runner) in one container on real TCP,
with the SPI pack handlers and pack metrics installed.  Useful for
poking at the stack with a real client::

    python -m repro.apps.serve --port 8080
    # another shell:
    python -m repro.apps.call 127.0.0.1:8080 urn:repro:echo echo payload=hello
    curl 'http://127.0.0.1:8080/services/EchoService?wsdl'
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading

from repro.apps.echo import make_echo_service
from repro.apps.grid import make_grid_service
from repro.apps.travel import (
    AIRLINE_NAMES,
    HOTEL_NAMES,
    make_airline_service,
    make_credit_card_service,
    make_hotel_service,
)
from repro.apps.weather import make_weather_service
from repro.core.dispatcher import spi_server_handlers
from repro.core.remote_exec import make_plan_runner_service
from repro.http.compression import CompressionPolicy
from repro.obs import Observability, SpanStore
from repro.server import ServerConfig, build_server
from repro.server.handlers import HandlerChain, PackMetricsHandler
from repro.transport.tcp import TcpTransport


def build_demo_server(
    host: str,
    port: int,
    *,
    architecture: str = "staged",
    backend: str = "threaded",
    app_workers: int = 16,
    observability: Observability | None = None,
    compression: bool = False,
    slo_config: dict | None = None,
):
    """Assemble the full demo container with SPI + metrics handlers.

    With an :class:`Observability`, the server records per-phase spans
    and serves ``GET /metrics`` and ``GET /healthz``; when the bundle
    carries a span store, ``GET /traces`` and ``GET /trace/<id>`` serve
    retained span trees too.  The pack metrics feed its registry so
    everything lands in one snapshot.

    ``compression`` enables negotiated gzip/deflate response coding for
    clients that send ``Accept-Encoding``; ``slo_config`` (a parsed
    ``slo.json``) lights up ``GET /slo`` live budget evaluation.
    """
    services = [
        make_echo_service(),
        make_weather_service(),
        make_grid_service(),
        make_credit_card_service(),
        *[make_airline_service(n, 480 + 70 * i) for i, n in enumerate(AIRLINE_NAMES)],
        *[make_hotel_service(n, 120 + 35 * i) for i, n in enumerate(HOTEL_NAMES)],
    ]
    metrics = PackMetricsHandler(
        observability.registry if observability is not None else None
    )
    chain = HandlerChain([metrics, *spi_server_handlers()])
    server = build_server(ServerConfig(
        services=services,
        architecture=architecture,
        backend=backend,
        transport=TcpTransport(),
        address=(host, port),
        chain=chain,
        app_workers=app_workers,
        observability=observability,
        compression=CompressionPolicy() if compression else None,
        slo_config=slo_config,
    ))
    server.container.deploy(make_plan_runner_service(server.container))
    return server, metrics


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; serves until SIGINT/SIGTERM."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps.serve",
        description="Run the demo SPI-enabled SOAP server.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--workers", type=int, default=16, help="application-stage workers")
    parser.add_argument(
        "--arch",
        default="staged",
        choices=["common", "staged"],
        help="server architecture: paper Fig. 1 (common) or Fig. 2 (staged)",
    )
    parser.add_argument(
        "--backend",
        default="threaded",
        choices=["threaded", "evented"],
        help="protocol-stage I/O: thread-per-connection or the C10K event loop",
    )
    parser.add_argument(
        "--no-obs",
        action="store_true",
        help="disable observability (no spans, no /metrics or /healthz routes)",
    )
    parser.add_argument(
        "--compress",
        action="store_true",
        help="negotiate gzip/deflate response coding via Accept-Encoding",
    )
    parser.add_argument(
        "--span-store",
        type=int,
        nargs="?",
        const=256,
        default=None,
        metavar="MAX_TRACES",
        help="keep completed traces queryable at /traces and /trace/<id> "
        "(tail-sampled, bounded; optional value sets the trace cap)",
    )
    parser.add_argument(
        "--slo",
        metavar="SLO_JSON",
        help="slo.json path; serves live budget verdicts at GET /slo",
    )
    args = parser.parse_args(argv)

    slo_config = None
    if args.slo:
        with open(args.slo, "r", encoding="utf-8") as handle:
            slo_config = json.load(handle)
    store = (
        SpanStore(max_traces=args.span_store)
        if args.span_store is not None and not args.no_obs
        else None
    )
    observability = None if args.no_obs else Observability(span_store=store)
    server, metrics = build_demo_server(
        args.host,
        args.port,
        architecture=args.arch,
        backend=args.backend,
        app_workers=args.workers,
        observability=observability,
        compression=args.compress,
        slo_config=slo_config,
    )
    address = server.start()
    print(f"SPI demo server listening on {address[0]}:{address[1]}")
    if observability is not None:
        print(f"  metrics: http://{address[0]}:{address[1]}/metrics")
        print(f"  health:  http://{address[0]}:{address[1]}/healthz")
        if store is not None:
            print(f"  traces:  http://{address[0]}:{address[1]}/traces")
        if slo_config is not None:
            print(f"  slo:     http://{address[0]}:{address[1]}/slo")
    print("deployed services:")
    for service in server.container.services():
        print(f"  {service.name:<24} {service.namespace}")
        print(f"    wsdl: http://{address[0]}:{address[1]}/services/{service.name}?wsdl")

    stop = threading.Event()

    def handle_signal(signum, frame):  # pragma: no cover - interactive
        stop.set()

    signal.signal(signal.SIGINT, handle_signal)
    signal.signal(signal.SIGTERM, handle_signal)
    try:
        while not stop.wait(timeout=1.0):
            pass
    finally:
        print("\npack metrics:", metrics.snapshot())
        server.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
