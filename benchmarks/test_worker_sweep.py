"""Application-stage sizing sweep for the staged architecture.

DESIGN.md design-choice ablation: the staged server's benefit for a
packed message of working operations depends on the application-stage
pool size.  With W workers, M operations of D ms each need ~ceil(M/W)*D
ms of stage time — the sweep makes that visible and checks monotonic
improvement until saturation.
"""

import statistics
import time

import pytest

from repro.apps.echo import make_echo_service
from repro.bench.workloads import BENCH_POLICY, build_transport
from repro.client.invoker import Call
from repro.core.batch import PackedInvoker
from repro.core.dispatcher import spi_server_handlers
from repro.client.proxy import ServiceProxy
from repro.apps.echo import ECHO_NS, ECHO_SERVICE
from repro.server.handlers import HandlerChain
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy

M = 16
DELAY_MS = 5
WORKER_COUNTS = [1, 4, 16]


@pytest.fixture(scope="module", params=WORKER_COUNTS)
def sized_bed(request):
    workers = request.param
    transport = build_transport("lan")
    server = build_server(ServerConfig(services=[make_echo_service()], architecture="staged", transport=transport, address=("127.0.0.1", 0), chain=HandlerChain(spi_server_handlers()), app_workers=workers))
    address = server.start()
    yield workers, transport, address
    server.stop()


def packed_point(transport, address):
    proxy = build_proxy(ClientConfig(
        transport, address, namespace=ECHO_NS, service_name=ECHO_SERVICE
    ))
    calls = Call.many("delayedEcho", [{"payload": "x", "delay_ms": DELAY_MS}] * M)
    try:
        return PackedInvoker(proxy).invoke_all(calls, BENCH_POLICY)
    finally:
        proxy.close()


def test_worker_sweep_point(benchmark, sized_bed):
    workers, transport, address = sized_bed
    benchmark.group = f"app-stage sizing (packed {M}x delayedEcho {DELAY_MS}ms)"
    benchmark.name = f"workers={workers}"
    # timed here, not read off benchmark.stats: with --benchmark-disable
    # the point still runs (once) but the plugin keeps no stats
    samples = []

    def timed_point():
        start = time.perf_counter()
        results = packed_point(transport, address)
        samples.append(time.perf_counter() - start)
        return results

    results = benchmark.pedantic(timed_point, rounds=3, warmup_rounds=1, iterations=1)
    assert len(results) == M
    # lower bound: ceil(M/W) serial rounds of the operation delay
    floor_s = -(-M // workers) * DELAY_MS / 1000.0
    assert min(samples) >= floor_s * 0.9


def test_more_workers_is_faster(benchmark):
    benchmark.group = "claims"
    times = {}
    for workers in (1, 16):
        transport = build_transport("lan")
        server = build_server(ServerConfig(services=[make_echo_service()], architecture="staged", transport=transport, address=("127.0.0.1", 0), chain=HandlerChain(spi_server_handlers()), app_workers=workers))
        address = server.start()
        try:
            samples = []
            for _ in range(3):
                start = time.perf_counter()
                packed_point(transport, address)
                samples.append(time.perf_counter() - start)
            times[workers] = statistics.median(samples)
        finally:
            server.stop()
    benchmark.extra_info["ms"] = {w: t * 1e3 for w, t in times.items()}
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert times[16] < times[1] / 4
