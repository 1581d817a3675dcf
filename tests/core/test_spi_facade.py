"""Tests for the SpiClient facade: every SPI interface from one handle."""

import pytest

from repro.apps.echo import ECHO_NS, make_echo_service
from repro.core.remote_exec import make_plan_runner_service
from repro.core.spi import SpiClient, connect
from repro.core.dispatcher import spi_server_handlers
from repro.server.handlers import HandlerChain
from repro.transport.inproc import InProcTransport
from repro.server import ServerConfig, build_server


@pytest.fixture(scope="module")
def env():
    transport = InProcTransport()
    server = build_server(ServerConfig(services=[make_echo_service()], architecture="staged", transport=transport, address="facade", chain=HandlerChain(spi_server_handlers())))
    server.container.deploy(make_plan_runner_service(server.container))
    with server.running() as address:
        yield transport, address, server


@pytest.fixture
def client(env):
    transport, address, _ = env
    with connect(
        transport, address, namespace=ECHO_NS, service_name="EchoService"
    ) as spi_client:
        yield spi_client


class TestFacade:
    def test_classic_call(self, client):
        assert client.call("echo", payload="plain rpc") == "plain rpc"

    def test_pack_interface(self, client):
        with client.pack() as batch:
            futures = [batch.call("echo", payload=f"f{i}") for i in range(3)]
        assert [f.result(timeout=10) for f in futures] == ["f0", "f1", "f2"]

    def test_auto_interface(self, client):
        with client.auto(max_delay=0.005) as packer:
            assert packer.call("echo", payload="via-auto") == "via-auto"

    def test_plan_and_remote_execute(self, client):
        plan = client.plan()
        first = plan.step(ECHO_NS, "echo", {"payload": "seed"})
        plan.step(ECHO_NS, "echo", bindings={"payload": first})
        results = client.remote_execute(plan)
        assert results == ["seed", "seed"]

    def test_context_manager_closes(self, env):
        transport, address, _ = env
        spi_client = connect(transport, address, namespace=ECHO_NS, service_name="EchoService")
        with spi_client:
            spi_client.call("echo", payload="x")
        # pool is closed; a fresh call re-opens transparently? No — the
        # proxy's pool is closed, but acquire() creates new connections,
        # so calls still work.  What must hold: close() is idempotent.
        spi_client.close()

    def test_connect_defaults_to_pooled(self, env):
        transport, address, server = env
        before = server.http.connections_accepted
        with connect(transport, address, namespace=ECHO_NS, service_name="EchoService") as c:
            c.call("echo", payload="a")
            c.call("echo", payload="b")
            c.call("echo", payload="c")
        assert server.http.connections_accepted - before == 1

    def test_connect_can_disable_pooling(self, env):
        transport, address, server = env
        before = server.http.connections_accepted
        with connect(
            transport, address, namespace=ECHO_NS, service_name="EchoService",
            reuse_connections=False,
        ) as c:
            c.call("echo", payload="a")
            c.call("echo", payload="b")
        assert server.http.connections_accepted - before == 2
