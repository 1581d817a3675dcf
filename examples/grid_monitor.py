#!/usr/bin/env python
"""Grid job monitoring — the paper's motivating domain, end to end.

Submits a batch of jobs to a JobManager container and monitors them to
completion twice: with classic one-message-per-poll calls, then with
SPI packing.  The message counters show why a grid portal polling many
jobs is the ideal pack-interface workload.

Run:  python examples/grid_monitor.py
"""

import time

from repro.apps.grid import GRID_NS, GRID_SERVICE, GridMonitor, make_grid_service
from repro.client.proxy import ServiceProxy
from repro.core import spi_server_handlers
from repro.server import HandlerChain, ServerConfig, build_server
from repro.transport import TcpTransport
from repro.client.config import ClientConfig, build_proxy

JOBS = 12


def soap_messages(server) -> int:
    """SOAP messages the server has parsed so far."""
    return server.registry.snapshot()["counters"]["soap.messages"]


def monitor_run(transport, address, server, use_packing: bool) -> None:
    label = "packed (SPI)" if use_packing else "serial      "
    proxy = build_proxy(ClientConfig(
        transport, address, namespace=GRID_NS, service_name=GRID_SERVICE,
        reuse_connections=True,
    ))
    monitor = GridMonitor(proxy, use_packing=use_packing)

    before_msgs = soap_messages(server)
    start = time.perf_counter()
    job_ids = monitor.submit_batch([f"render frame {i}" for i in range(JOBS)])
    statuses, poll_messages = monitor.wait_all_done(job_ids, timeout=30)
    results = monitor.fetch_results(job_ids)
    elapsed = (time.perf_counter() - start) * 1e3
    messages = soap_messages(server) - before_msgs

    done = sum(1 for s in statuses if s["state"] == "DONE")
    print(
        f"  {label}: {JOBS} jobs submitted+monitored+fetched in {elapsed:7.1f} ms "
        f"using {messages:3d} SOAP messages ({done} done, {len(results)} results)"
    )
    proxy.close()


def main() -> None:
    transport = TcpTransport()
    service = make_grid_service(workers=8, work_units=30)
    server = build_server(ServerConfig(services=[service], architecture="staged", transport=transport, address=("127.0.0.1", 0), chain=HandlerChain(spi_server_handlers())))
    with server.running() as address:
        print(f"JobManager on {address[0]}:{address[1]} — monitoring {JOBS} jobs\n")
        monitor_run(transport, address, server, use_packing=False)
        monitor_run(transport, address, server, use_packing=True)
        print("\nsame work, same results — a fraction of the messages when packed.")
    service.job_store.shutdown()


if __name__ == "__main__":
    main()
