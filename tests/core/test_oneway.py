"""Tests for one-way (fire-and-forget) invocations."""

import threading
import time

import pytest

from repro.apps.echo import ECHO_NS
from repro.client.proxy import ServiceProxy
from repro.core.batch import PackBatch
from repro.core.dispatcher import spi_server_handlers
from repro.core.oneway import (
    ACCEPTED_TAG,
    accepted_response,
    is_accepted,
    is_one_way,
    mark_one_way,
)
from repro.core.spi import connect
from repro.server.handlers import HandlerChain
from repro.server.service import service_from_functions
from repro.server import ServerConfig, build_server
from repro.soap.constants import REQUEST_ID_ATTR
from repro.soap.serializer import serialize_rpc_request
from repro.transport.inproc import InProcTransport
from repro.xmlcore.tree import Element
from repro.client.config import ClientConfig, build_proxy

from ..metrics import counters


class TestPrimitives:
    def test_mark_and_detect(self):
        entry = serialize_rpc_request(ECHO_NS, "echo", {"payload": "x"})
        assert not is_one_way(entry)
        mark_one_way(entry)
        assert is_one_way(entry)

    def test_accepted_response_carries_request_id(self):
        entry = Element("op")
        entry.set(REQUEST_ID_ATTR, "r5")
        ack = accepted_response(entry)
        assert ack.tag == ACCEPTED_TAG
        assert ack.get(REQUEST_ID_ATTR) == "r5"

    def test_accepted_response_without_id(self):
        ack = accepted_response(Element("op"))
        assert ack.get(REQUEST_ID_ATTR) is None

    def test_is_accepted(self):
        assert is_accepted(accepted_response(Element("op")))
        assert not is_accepted(Element("other"))


class _SlowSink:
    """Service that records notifications after a delay."""

    def __init__(self):
        self.received: list[str] = []
        self.lock = threading.Lock()
        self.event = threading.Event()

    def notify(self, message: str) -> str:
        time.sleep(0.05)
        with self.lock:
            self.received.append(message)
        self.event.set()
        return "done"


def make_env(architecture):
    transport = InProcTransport()
    sink = _SlowSink()
    service = service_from_functions(
        "Sink", "urn:sink", {"notify": sink.notify, "ping": lambda: "pong"}
    )
    server = build_server(ServerConfig(
        services=[service],
        architecture=architecture,
        transport=transport,
        address="oneway",
        chain=HandlerChain(spi_server_handlers()),
    ))
    return transport, server, sink


class TestStagedOneWay:
    @pytest.fixture
    def env(self):
        transport, server, sink = make_env("staged")
        with server.running() as address:
            proxy = build_proxy(ClientConfig(transport, address, namespace="urn:sink", service_name="Sink"))
            yield proxy, server, sink
            proxy.close()

    def test_cast_returns_before_execution(self, env):
        proxy, _, sink = env
        batch = PackBatch(proxy)
        future = batch.cast("notify", message="fast ack")
        start = time.monotonic()
        batch.flush()
        assert future.result(timeout=5) is None
        elapsed = time.monotonic() - start
        # the ack must not wait for the 50 ms operation
        assert elapsed < 0.045
        # the operation still executes eventually
        assert sink.event.wait(timeout=5)
        assert sink.received == ["fast ack"]

    def test_burst_of_casts_one_round_trip(self, env):
        proxy, server, sink = env
        batch = PackBatch(proxy)
        futures = [batch.cast("notify", message=f"n{i}") for i in range(5)]
        start = time.monotonic()
        batch.flush()
        for future in futures:
            assert future.result(timeout=5) is None
        assert time.monotonic() - start < 0.1  # 5 x 50 ms if waited
        assert counters(server)["soap.messages"] == 1
        deadline = time.monotonic() + 5
        while len(sink.received) < 5 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sorted(sink.received) == [f"n{i}" for i in range(5)]

    def test_mixed_call_and_cast(self, env):
        proxy, _, sink = env
        batch = PackBatch(proxy)
        ack = batch.cast("notify", message="bg")
        answer = batch.call("ping")
        batch.flush()
        assert ack.result(timeout=5) is None
        assert answer.result(timeout=5) == "pong"
        assert sink.event.wait(timeout=5)

    def test_facade_cast(self, env):
        proxy, _, sink = env
        transport, address = proxy.transport, proxy.address
        with connect(transport, address, namespace="urn:sink", service_name="Sink") as client:
            client.cast("notify", message="via facade")
        assert sink.event.wait(timeout=5)
        assert "via facade" in sink.received

    def test_oneway_failure_does_not_surface(self, env):
        """A one-way operation that faults is acknowledged anyway; the
        failure is recorded server-side only."""
        proxy, server, _ = env
        batch = PackBatch(proxy)
        future = batch.cast("noSuchOperation")
        batch.flush()
        assert future.result(timeout=5) is None
        deadline = time.monotonic() + 5
        while counters(server)["container.faults"] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert counters(server)["container.faults"] == 1


class TestCommonArchOneWay:
    def test_executes_synchronously_but_acks(self):
        transport, server, sink = make_env("common")
        with server.running() as address:
            proxy = build_proxy(ClientConfig(transport, address, namespace="urn:sink", service_name="Sink"))
            batch = PackBatch(proxy)
            future = batch.cast("notify", message="sync")
            start = time.monotonic()
            batch.flush()
            elapsed = time.monotonic() - start
            proxy.close()
        assert future.result(timeout=5) is None
        # Figure 1 has no second pool: the response waits for execution
        assert elapsed >= 0.045
        assert sink.received == ["sync"]
