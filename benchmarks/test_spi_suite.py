"""Evaluating the *suite* of SPI interfaces (paper §5 future work:
"Finally, we will implement and evaluate the suite of interfaces in
SPI").

Two workloads:

* **burst** — M independent echo calls: classic serial vs explicit
  PackBatch vs transparent AutoPacker (8 concurrent caller threads).
* **pipeline** — a chain of dependent travel-booking calls: serial
  round trips vs one remote-execution plan.
"""

import statistics
import threading
import time

import pytest

from repro.apps.travel import (
    CREDIT_NS,
    airline_ns,
    make_airline_service,
    make_credit_card_service,
)
from repro.bench.workloads import build_transport, echo_testbed
from repro.client.proxy import ServiceProxy
from repro.core.autopack import AutoPacker
from repro.core.batch import PackBatch
from repro.core.remote_exec import (
    REMOTE_EXEC_NS,
    REMOTE_EXEC_SERVICE,
    ExecutionPlan,
    RemoteExecutor,
    make_plan_runner_service,
)
from repro.core.dispatcher import spi_server_handlers
from repro.server.handlers import HandlerChain
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy

M = 16


@pytest.fixture(scope="module")
def echo_bed():
    with echo_testbed(profile="lan", architecture="staged", spi=True) as bed:
        yield bed


def serial_burst(bed):
    proxy = bed.make_proxy()
    try:
        for i in range(M):
            proxy.call("echo", payload=f"m{i}")
    finally:
        proxy.close()


def packed_burst(bed):
    proxy = bed.make_proxy()
    try:
        with PackBatch(proxy) as batch:
            futures = [batch.call("echo", payload=f"m{i}") for i in range(M)]
        for future in futures:
            future.result(timeout=60)
    finally:
        proxy.close()


def autopack_burst(bed):
    proxy = bed.make_proxy(reuse_connections=True)
    try:
        with AutoPacker(proxy, max_batch=M, max_delay=0.01) as packer:
            threads = []
            barrier = threading.Barrier(8, timeout=10)

            def caller(start, stop):
                barrier.wait()
                for i in range(start, stop):
                    packer.call("echo", payload=f"m{i}")

            for t in range(8):
                chunk = M // 8
                thread = threading.Thread(target=caller, args=(t * chunk, (t + 1) * chunk))
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join(timeout=30)
    finally:
        proxy.close()


@pytest.mark.parametrize(
    "runner", [serial_burst, packed_burst, autopack_burst],
    ids=["serial", "pack-batch", "auto-pack"],
)
def test_burst_workload(benchmark, echo_bed, runner):
    benchmark.group = f"spi suite: burst of {M} echo calls"
    benchmark.pedantic(runner, args=(echo_bed,), rounds=3, warmup_rounds=1, iterations=1)


def test_autopack_fewer_messages_than_serial(benchmark, echo_bed):
    benchmark.group = "claims"
    registry = echo_bed.server.registry
    before = registry.snapshot()["counters"]["soap.messages"]
    autopack_burst(echo_bed)
    autopack_messages = registry.snapshot()["counters"]["soap.messages"] - before
    benchmark.extra_info["messages"] = {"serial": M, "autopack": autopack_messages}
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert autopack_messages < M


@pytest.fixture(scope="module")
def pipeline_env():
    transport = build_transport("lan")
    server = build_server(ServerConfig(services=[make_airline_service("AirChina", 480), make_credit_card_service()], architecture="staged", transport=transport, address=("127.0.0.1", 0), chain=HandlerChain(spi_server_handlers())))
    server.container.deploy(make_plan_runner_service(server.container))
    address = server.start()
    yield transport, address
    server.stop()


def serial_pipeline(transport, address):
    airline = build_proxy(ClientConfig(
        transport, address, namespace=airline_ns("AirChina"), service_name="AirChinaAirline"
    ))
    credit = build_proxy(ClientConfig(transport, address, namespace=CREDIT_NS, service_name="CreditCard"))
    try:
        reservation = airline.call("reserveFlight", flightId="AirChina-PEK-SHA-0")
        auth = credit.call("authorizePayment", account="ACCT-1", amount=480)
        airline.call(
            "confirmReservation", reservationId=reservation, authorizationId=auth
        )
    finally:
        airline.close()
        credit.close()


def remote_exec_pipeline(transport, address):
    executor = RemoteExecutor(
        build_proxy(ClientConfig(
            transport, address, namespace=REMOTE_EXEC_NS, service_name=REMOTE_EXEC_SERVICE
        ))
    )
    plan = ExecutionPlan()
    reserve = plan.step(
        airline_ns("AirChina"), "reserveFlight", {"flightId": "AirChina-PEK-SHA-0"}
    )
    auth = plan.step(CREDIT_NS, "authorizePayment", {"account": "ACCT-1", "amount": 480})
    plan.step(
        airline_ns("AirChina"),
        "confirmReservation",
        bindings={"reservationId": reserve, "authorizationId": auth},
    )
    executor.execute(plan)


@pytest.mark.parametrize(
    "runner", [serial_pipeline, remote_exec_pipeline],
    ids=["serial-round-trips", "remote-exec-plan"],
)
def test_pipeline_workload(benchmark, pipeline_env, runner):
    transport, address = pipeline_env
    benchmark.group = "spi suite: 3-step dependent pipeline"
    benchmark.pedantic(
        runner, args=(transport, address), rounds=3, warmup_rounds=1, iterations=1
    )


def test_remote_exec_beats_serial_round_trips(benchmark, pipeline_env):
    benchmark.group = "claims"
    transport, address = pipeline_env

    def timed(fn, repeats=3):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn(transport, address)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    serial = timed(serial_pipeline)
    remote = timed(remote_exec_pipeline)
    benchmark.extra_info["ms"] = {"serial": serial * 1e3, "remote": remote * 1e3}
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert remote < serial
