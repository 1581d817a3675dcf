"""Integration tests: PackBatch / PackedInvoker / SPI facade end to end."""

import time

import pytest

from repro.client.invoker import Call
from repro.client.proxy import ServiceProxy
from repro.core.batch import PackBatch, PackedInvoker
from repro.core.dispatcher import spi_server_handlers
from repro.core.spi import connect
from repro.errors import PackError, SoapFaultError
from repro.server.handlers import HandlerChain
from repro.server.service import service_from_functions
from repro.transport.inproc import InProcTransport
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy

from ..metrics import counters, sketches

NS = "urn:svc:echo"


def make_server(transport, address="spi-server"):
    def echo(payload: str) -> str:
        return payload

    def slow(payload: str) -> str:
        time.sleep(0.05)
        return payload

    def fail(reason: str) -> str:
        raise RuntimeError(reason)

    services = [
        service_from_functions("EchoService", NS, {"echo": echo, "slow": slow, "fail": fail})
    ]
    return build_server(ServerConfig(services=services, architecture="staged", transport=transport, address=address, chain=HandlerChain(spi_server_handlers())))


@pytest.fixture
def env():
    transport = InProcTransport()
    server = make_server(transport)
    with server.running() as address:
        proxy = build_proxy(ClientConfig(transport, address, namespace=NS, service_name="EchoService"))
        yield transport, address, proxy, server
        proxy.close()


class TestPackBatch:
    def test_basic_pack(self, env):
        _, _, proxy, _ = env
        batch = PackBatch(proxy)
        futures = [batch.call("echo", payload=f"m{i}") for i in range(4)]
        batch.flush()
        assert [f.result(timeout=5) for f in futures] == ["m0", "m1", "m2", "m3"]

    def test_one_soap_message_for_m_calls(self, env):
        _, _, proxy, server = env
        batch = PackBatch(proxy)
        for i in range(8):
            batch.call("echo", payload=str(i))
        batch.flush()
        assert counters(server)["soap.messages"] == 1
        assert sketches(server)["soap.pack_degree"]["sum"] == 8
        assert counters(server)["http.connections.accepted"] == 1

    def test_context_manager_flushes(self, env):
        _, _, proxy, _ = env
        with PackBatch(proxy) as batch:
            future = batch.call("echo", payload="auto")
        assert future.result(timeout=5) == "auto"

    def test_context_manager_exception_fails_futures(self, env):
        _, _, proxy, server = env
        with pytest.raises(ValueError):
            with PackBatch(proxy) as batch:
                future = batch.call("echo", payload="doomed")
                raise ValueError("user error")
        assert isinstance(future.exception(timeout=0), PackError)
        assert counters(server)["soap.messages"] == 0

    def test_double_flush_raises(self, env):
        _, _, proxy, _ = env
        batch = PackBatch(proxy)
        batch.call("echo", payload="x")
        batch.flush()
        with pytest.raises(PackError, match="already flushed"):
            batch.flush()

    def test_call_after_flush_raises(self, env):
        _, _, proxy, _ = env
        batch = PackBatch(proxy)
        batch.call("echo", payload="x")
        batch.flush()
        with pytest.raises(PackError):
            batch.call("echo", payload="y")

    def test_empty_batch_flush_is_noop(self, env):
        _, _, proxy, server = env
        assert PackBatch(proxy).flush() == []
        assert counters(server)["soap.messages"] == 0

    def test_mixed_results_and_faults(self, env):
        _, _, proxy, _ = env
        batch = PackBatch(proxy)
        ok = batch.call("echo", payload="fine")
        bad = batch.call("fail", reason="oops")
        also_ok = batch.call("echo", payload="fine2")
        batch.flush()
        assert ok.result(timeout=5) == "fine"
        assert also_ok.result(timeout=5) == "fine2"
        error = bad.exception(timeout=5)
        assert isinstance(error, SoapFaultError)
        assert "oops" in str(error)

    def test_transport_failure_fails_all_futures(self):
        transport = InProcTransport()
        server = make_server(transport, address="dies")
        with server.running() as address:
            proxy = build_proxy(ClientConfig(transport, address, namespace=NS, service_name="EchoService"))
        # server now stopped; listener gone
        batch = PackBatch(proxy)
        futures = [batch.call("echo", payload="x"), batch.call("echo", payload="y")]
        batch.flush()
        for future in futures:
            assert future.exception(timeout=0) is not None

    def test_packed_slow_calls_execute_concurrently(self, env):
        _, _, proxy, _ = env
        batch = PackBatch(proxy)
        futures = [batch.call("slow", payload=str(i)) for i in range(6)]
        start = time.monotonic()
        batch.flush()
        results = [f.result(timeout=5) for f in futures]
        elapsed = time.monotonic() - start
        assert results == [str(i) for i in range(6)]
        assert elapsed < 0.25  # serial would be >= 0.3


class TestPackedInvoker:
    def test_invoke_all(self, env):
        _, _, proxy, server = env
        calls = Call.many("echo", [{"payload": f"p{i}"} for i in range(5)])
        results = PackedInvoker(proxy).invoke_all(calls)
        assert results == [f"p{i}" for i in range(5)]
        assert counters(server)["soap.messages"] == 1

    def test_name(self, env):
        _, _, proxy, _ = env
        assert PackedInvoker(proxy).name == "packed"


class TestSpiFacade:
    def test_connect_and_call(self, env):
        transport, address, _, _ = env
        with connect(
            transport, address, namespace=NS, service_name="EchoService"
        ) as client:
            assert client.call("echo", payload="plain") == "plain"

    def test_pack_through_facade(self, env):
        transport, address, _, server = env
        before = counters(server)["soap.messages"]
        with connect(transport, address, namespace=NS, service_name="EchoService") as client:
            with client.pack() as batch:
                futures = [batch.call("echo", payload=f"f{i}") for i in range(3)]
            assert [f.result(timeout=5) for f in futures] == ["f0", "f1", "f2"]
        assert counters(server)["soap.messages"] - before == 1

    def test_facade_uses_pooled_connections(self, env):
        transport, address, _, server = env
        with connect(transport, address, namespace=NS, service_name="EchoService") as client:
            client.call("echo", payload="a")
            client.call("echo", payload="b")
        assert counters(server)["http.connections.accepted"] == 1


class TestServerWithoutSpiHandlers:
    def test_packed_message_against_plain_server_faults_cleanly(self):
        """A Parallel_Method sent to a server without the SPI handlers is
        an unknown operation -> per-entry Client fault, surfaced on all
        futures (endpoint treats the single entry normally)."""
        transport = InProcTransport()

        def echo(payload: str) -> str:
            return payload

        server = build_server(ServerConfig(services=[service_from_functions("EchoService", NS, {"echo": echo})], architecture="staged", transport=transport, address="nospi"))
        with server.running() as address:
            proxy = build_proxy(ClientConfig(transport, address, namespace=NS, service_name="EchoService"))
            batch = PackBatch(proxy)
            futures = [batch.call("echo", payload="x")]
            batch.flush()
        error = futures[0].exception(timeout=5)
        assert error is not None
