"""Full-stack integration over real TCP sockets (not in-proc queues).

Everything the unit tests verify over InProcTransport is re-exercised
here across the kernel's loopback: framing, keep-alive, concurrency,
packing, WSDL fetch.
"""

import threading

import pytest

from repro.apps.echo import ECHO_NS, make_echo_payload, make_echo_service
from repro.client.invoker import Call, SerialInvoker, ThreadedInvoker
from repro.client.proxy import ServiceProxy
from repro.core.batch import PackBatch, PackedInvoker
from repro.core.dispatcher import spi_server_handlers
from repro.server.handlers import HandlerChain
from repro.transport.tcp import TcpTransport
from repro.resilience.policy import CallPolicy
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy

from ..metrics import counters


@pytest.fixture(scope="module")
def tcp_env():
    transport = TcpTransport()
    server = build_server(ServerConfig(services=[make_echo_service()], architecture="staged", transport=transport, address=("127.0.0.1", 0), chain=HandlerChain(spi_server_handlers())))
    address = server.start()
    yield transport, address, server
    server.stop()


def make_proxy(tcp_env, **kwargs):
    transport, address, _ = tcp_env
    return build_proxy(ClientConfig(
        transport, address, namespace=ECHO_NS, service_name="EchoService", **kwargs
    ))


class TestOverRealSockets:
    def test_single_call(self, tcp_env):
        proxy = make_proxy(tcp_env)
        assert proxy.call("echo", payload="over tcp") == "over tcp"

    def test_large_payload_round_trip(self, tcp_env):
        payload = make_echo_payload(500_000)
        proxy = make_proxy(tcp_env)
        assert proxy.call("echo", payload=payload) == payload

    def test_unicode_payload(self, tcp_env):
        proxy = make_proxy(tcp_env)
        text = "北京 → Edinburgh ✈ café"
        assert proxy.call("echo", payload=text) == text

    def test_packed_batch(self, tcp_env):
        proxy = make_proxy(tcp_env)
        with PackBatch(proxy) as batch:
            futures = [batch.call("echo", payload=f"tcp-{i}") for i in range(16)]
        assert [f.result(timeout=10) for f in futures] == [f"tcp-{i}" for i in range(16)]

    def test_all_three_strategies_agree(self, tcp_env):
        calls = Call.many("echo", [{"payload": f"p{i}"} for i in range(10)])
        expected = [f"p{i}" for i in range(10)]
        for invoker_cls in (SerialInvoker, ThreadedInvoker, PackedInvoker):
            proxy = make_proxy(tcp_env)
            try:
                assert invoker_cls(proxy).invoke_all(calls, CallPolicy(timeout=30)) == expected
            finally:
                proxy.close()

    def test_concurrent_packed_clients(self, tcp_env):
        results = {}
        lock = threading.Lock()

        def client(i):
            proxy = make_proxy(tcp_env)
            try:
                with PackBatch(proxy) as batch:
                    futures = [batch.call("echo", payload=f"c{i}-{j}") for j in range(4)]
                with lock:
                    results[i] = [f.result(timeout=10) for f in futures]
            finally:
                proxy.close()

        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert results == {
            i: [f"c{i}-{j}" for j in range(4)] for i in range(6)
        }

    def test_wsdl_over_http(self, tcp_env):
        proxy = make_proxy(tcp_env)
        document = proxy.fetch_wsdl()
        assert "EchoService" in document
        checked = ServiceProxy.from_wsdl(
            document, tcp_env[0], tcp_env[1]
        )
        assert checked.call("echoLength", payload="four") == 4

    def test_keepalive_over_tcp(self, tcp_env):
        transport, address, server = tcp_env
        before = counters(server)["http.connections.accepted"]
        proxy = make_proxy(tcp_env, reuse_connections=True)
        for i in range(5):
            proxy.call("echo", payload=str(i))
        proxy.close()
        assert counters(server)["http.connections.accepted"] - before == 1
