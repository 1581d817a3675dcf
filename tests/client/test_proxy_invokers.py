"""Integration tests: proxy + serial/threaded invokers against a server."""

import time

import pytest

from repro.errors import InvocationError, SoapFaultError
from repro.client.invoker import Call, SerialInvoker, ThreadedInvoker
from repro.client.proxy import ServiceProxy
from repro.server.service import service_from_functions
from repro.transport.inproc import InProcTransport
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy

from ..metrics import counters

NS = "urn:svc:echo"


def make_server(transport, address="proxy-server"):
    def echo(payload: str) -> str:
        return payload

    def reverse(payload: str) -> str:
        return payload[::-1]

    def slow(payload: str) -> str:
        time.sleep(0.05)
        return payload

    def fail(reason: str) -> str:
        raise RuntimeError(reason)

    services = [
        service_from_functions(
            "EchoService",
            NS,
            {"echo": echo, "reverse": reverse, "slow": slow, "fail": fail},
        )
    ]
    return build_server(ServerConfig(services=services, architecture="staged", transport=transport, address=address))


@pytest.fixture
def env():
    transport = InProcTransport()
    server = make_server(transport)
    with server.running() as address:
        proxy = build_proxy(ClientConfig(
            transport, address, namespace=NS, service_name="EchoService"
        ))
        yield transport, address, proxy, server
        proxy.close()


class TestServiceProxy:
    def test_call(self, env):
        _, _, proxy, _ = env
        assert proxy.call("echo", payload="hello") == "hello"

    def test_dynamic_attribute_call(self, env):
        _, _, proxy, _ = env
        assert proxy.reverse(payload="abc") == "cba"

    def test_fault_surfaces_as_exception(self, env):
        _, _, proxy, _ = env
        with pytest.raises(SoapFaultError) as excinfo:
            proxy.call("fail", reason="bad day")
        assert "bad day" in str(excinfo.value)

    def test_unknown_operation_faults(self, env):
        _, _, proxy, _ = env
        with pytest.raises(SoapFaultError):
            proxy.call("nothere")

    def test_fresh_connection_per_call_by_default(self, env):
        _, _, proxy, server = env
        for _ in range(3):
            proxy.call("echo", payload="x")
        assert proxy.connections_opened == 3
        assert counters(server)["http.connections.accepted"] == 3

    def test_pooled_connections_reused(self, env):
        transport, address, _, server = env
        before = counters(server)["http.connections.accepted"]
        pooled = build_proxy(ClientConfig(
            transport,
            address,
            namespace=NS,
            service_name="EchoService",
            reuse_connections=True,
        ))
        for _ in range(3):
            pooled.call("echo", payload="x")
        pooled.close()
        assert counters(server)["http.connections.accepted"] - before == 1

    def test_calls_counted(self, env):
        _, _, proxy, _ = env
        proxy.call("echo", payload="1")
        proxy.call("echo", payload="2")
        assert proxy.calls == 2

    def test_fetch_wsdl_and_from_wsdl(self, env):
        transport, address, proxy, _ = env
        document = proxy.fetch_wsdl()
        assert "EchoService" in document
        checked = ServiceProxy.from_wsdl(document, transport, address)
        assert checked.namespace == NS
        assert checked.call("echo", payload="via-wsdl") == "via-wsdl"

    def test_interface_rejects_unknown_operation(self, env):
        transport, address, proxy, _ = env
        checked = ServiceProxy.from_wsdl(proxy.fetch_wsdl(), transport, address)
        with pytest.raises(InvocationError, match="not an operation"):
            checked.call("bogus")

    def test_interface_rejects_wrong_params(self, env):
        transport, address, proxy, _ = env
        checked = ServiceProxy.from_wsdl(proxy.fetch_wsdl(), transport, address)
        with pytest.raises(InvocationError, match="expects parameters"):
            checked.call("echo", wrong="x")


class TestSerialInvoker:
    def test_results_in_order(self, env):
        _, _, proxy, _ = env
        calls = Call.many("echo", [{"payload": f"m{i}"} for i in range(5)])
        results = SerialInvoker(proxy).invoke_all(calls)
        assert results == [f"m{i}" for i in range(5)]

    def test_one_connection_per_call(self, env):
        _, _, proxy, server = env
        SerialInvoker(proxy).invoke_all(Call.many("echo", [{"payload": "x"}] * 4))
        assert counters(server)["http.connections.accepted"] == 4

    def test_failure_recorded_per_future(self, env):
        _, _, proxy, _ = env
        futures = SerialInvoker(proxy).submit_all(
            [Call("echo", {"payload": "ok"}), Call("fail", {"reason": "no"})]
        )
        assert futures[0].result() == "ok"
        assert isinstance(futures[1].exception(), SoapFaultError)

    def test_serial_takes_cumulative_time(self, env):
        _, _, proxy, _ = env
        start = time.monotonic()
        SerialInvoker(proxy).invoke_all(Call.many("slow", [{"payload": "x"}] * 3))
        assert time.monotonic() - start >= 0.15


class TestThreadedInvoker:
    def test_results_in_order(self, env):
        _, _, proxy, _ = env
        calls = Call.many("echo", [{"payload": f"m{i}"} for i in range(6)])
        results = ThreadedInvoker(proxy).invoke_all(calls)
        assert results == [f"m{i}" for i in range(6)]

    def test_overlaps_slow_calls(self, env):
        _, _, proxy, _ = env
        start = time.monotonic()
        ThreadedInvoker(proxy).invoke_all(Call.many("slow", [{"payload": "x"}] * 4))
        elapsed = time.monotonic() - start
        assert elapsed < 0.18  # 4 x 0.05s serial would be >= 0.2

    def test_still_one_message_per_call(self, env):
        _, _, proxy, server = env
        ThreadedInvoker(proxy).invoke_all(Call.many("echo", [{"payload": "x"}] * 5))
        assert counters(server)["soap.messages"] == 5
        assert counters(server)["http.connections.accepted"] == 5

    def test_max_threads_cap(self, env):
        _, _, proxy, _ = env
        calls = Call.many("echo", [{"payload": f"{i}"} for i in range(8)])
        results = ThreadedInvoker(proxy, max_threads=2).invoke_all(calls)
        assert results == [f"{i}" for i in range(8)]

    def test_mixed_failures(self, env):
        _, _, proxy, _ = env
        futures = ThreadedInvoker(proxy).submit_all(
            [Call("fail", {"reason": "r"}), Call("echo", {"payload": "fine"})]
        )
        assert isinstance(futures[0].exception(), SoapFaultError)
        assert futures[1].result() == "fine"


class TestKeepAliveSerialInvoker:
    def test_results_in_order(self, env):
        from repro.client.invoker import KeepAliveSerialInvoker

        _, _, proxy, _ = env
        calls = Call.many("echo", [{"payload": f"k{i}"} for i in range(5)])
        results = KeepAliveSerialInvoker(proxy).invoke_all(calls)
        assert results == [f"k{i}" for i in range(5)]

    def test_single_connection_for_all_calls(self, env):
        from repro.client.invoker import KeepAliveSerialInvoker

        _, _, proxy, server = env
        before = counters(server)["http.connections.accepted"]
        KeepAliveSerialInvoker(proxy).invoke_all(
            Call.many("echo", [{"payload": "x"}] * 6)
        )
        assert counters(server)["http.connections.accepted"] - before == 1

    def test_still_m_soap_messages(self, env):
        from repro.client.invoker import KeepAliveSerialInvoker

        _, _, proxy, server = env
        before = counters(server)["soap.messages"]
        KeepAliveSerialInvoker(proxy).invoke_all(
            Call.many("echo", [{"payload": "x"}] * 6)
        )
        assert counters(server)["soap.messages"] - before == 6

    def test_reuses_already_pooled_proxy(self, env):
        from repro.client.invoker import KeepAliveSerialInvoker

        transport, address, _, _ = env
        pooled = build_proxy(ClientConfig(
            transport, address, namespace=NS, service_name="EchoService",
            reuse_connections=True,
        ))
        invoker = KeepAliveSerialInvoker(pooled)
        assert invoker.proxy is pooled
        assert invoker.invoke_all([Call("echo", {"payload": "y"})]) == ["y"]
        pooled.close()

    def test_failures_recorded_per_future(self, env):
        from repro.client.invoker import KeepAliveSerialInvoker

        _, _, proxy, _ = env
        futures = KeepAliveSerialInvoker(proxy).submit_all(
            [Call("fail", {"reason": "r"}), Call("echo", {"payload": "ok"})]
        )
        assert isinstance(futures[0].exception(), SoapFaultError)
        assert futures[1].result() == "ok"
