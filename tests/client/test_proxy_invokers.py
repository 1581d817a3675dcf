"""Integration tests: proxy + serial/threaded invokers against a server."""

import time

import pytest

from repro.errors import InvocationError, SoapFaultError, TransportError
from repro.client.invoker import Call, SerialInvoker, ThreadedInvoker
from repro.client.proxy import ServiceProxy
from repro.server.service import service_from_functions
from repro.transport.inproc import InProcTransport
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.resilience.policy import CallPolicy

from ..metrics import counters
from ..transport.recording import RecordingTransport

NS = "urn:svc:echo"


def make_server(transport, address="proxy-server", **config):
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
    return build_server(ServerConfig(
        services=services, architecture="staged", transport=transport, address=address, **config
    ))


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


class CountingRegistry(MetricsRegistry):
    """Counts instrument look-ups (each takes the registry lock).

    Counted at attribute access rather than by overriding the methods,
    so the static call graph still resolves ``registry.sketch(...)`` in
    ``src/`` to the one ``MetricsRegistry.sketch``."""

    lookups = 0

    def __getattribute__(self, name):
        if name in ("counter", "gauge", "sketch"):
            self.lookups += 1
        return super().__getattribute__(name)


class TestServiceProxy:
    def test_call(self, env):
        _, _, proxy, _ = env
        assert proxy.call("echo", payload="hello") == "hello"

    def test_a_warm_action_looks_no_instrument_up(self, env):
        """Instruments are bound at construction, so no call, a first
        one of a new action included, takes the registry lock."""
        transport, address, _, _ = env
        registry = CountingRegistry()
        proxy = build_proxy(ClientConfig(
            transport, address, namespace=NS, service_name="EchoService",
            tracer=Tracer(registry),
        ))
        try:
            proxy.call("echo", payload="a")
            warm = registry.lookups
            proxy.call("echo", payload="b")
            assert registry.lookups == warm
            proxy.call("reverse", payload="c")
            assert registry.lookups == warm
        finally:
            proxy.close()

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


class TestPooledResend:
    """A kept-alive connection may die idle: the proxy sends once more,
    on a new connection, and only when the dead one was warm."""

    def test_warm_connection_the_peer_closed_is_sent_again_once(self):
        base = InProcTransport()
        server = make_server(base, "idle-closer", idle_timeout=0.05)
        with server.running() as address:
            wire = RecordingTransport(base)
            proxy = build_proxy(ClientConfig(
                wire, address, namespace=NS, service_name="EchoService",
                reuse_connections=True,
            ))
            try:
                assert proxy.call("echo", payload="warm") == "warm"
                give_up = time.monotonic() + 5
                while counters(server)["http.connections.timed_out"] < 1:
                    assert time.monotonic() < give_up, "the server kept the idle connection"
                    time.sleep(0.01)
                sends = len(wire.sent)
                assert proxy.call("echo", payload="again") == "again"
                # one send on the dead keep-alive, one on a new connection
                assert len(wire.sent) - sends == 2
                assert len(wire.channels) == 2
                assert counters(server)["http.connections.accepted"] == 2
            finally:
                proxy.close()

    def test_a_fresh_connection_that_fails_is_not_sent_again(self):
        # a listener nobody accepts on: the connect succeeds, recv hangs
        base = InProcTransport()
        listener = base.listen("hung-server")
        try:
            wire = RecordingTransport(base)
            proxy = build_proxy(ClientConfig(
                wire, "hung-server", namespace=NS, service_name="EchoService",
                reuse_connections=True, policy=CallPolicy(deadline=0.1),
            ))
            with pytest.raises(TransportError, match="timed out"):
                proxy.call("echo", payload="x")
            assert len(wire.sent) == 1
            assert len(wire.channels) == 1
            proxy.close()
        finally:
            listener.close()


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
        slots = SerialInvoker(proxy).run_all(
            [Call("echo", {"payload": "ok"}), Call("fail", {"reason": "no"})], None
        )
        assert slots[0] == "ok"
        assert isinstance(slots[1], SoapFaultError)

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

    def test_mixed_failures(self, env):
        _, _, proxy, _ = env
        slots = ThreadedInvoker(proxy).run_all(
            [Call("fail", {"reason": "r"}), Call("echo", {"payload": "fine"})], None
        )
        assert isinstance(slots[0], SoapFaultError)
        assert slots[1] == "fine"


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
        slots = KeepAliveSerialInvoker(proxy).run_all(
            [Call("fail", {"reason": "r"}), Call("echo", {"payload": "ok"})], None
        )
        assert isinstance(slots[0], SoapFaultError)
        assert slots[1] == "ok"
