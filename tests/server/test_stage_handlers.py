"""Unit tests for SEDA stages and the handler chain."""

import pytest

from repro.apps.echo import ECHO_NS, make_echo_service
from repro.client.config import ClientConfig, build_proxy
from repro.core.batch import PackBatch
from repro.core.dispatcher import spi_server_handlers
from repro.server import ServerConfig, build_server
from repro.server.handlers import (
    Handler,
    HandlerChain,
    MessageContext,
    PackMetricsHandler,
)
from repro.server.stage import Stage
from repro.transport.inproc import InProcTransport
from repro.soap.envelope import Envelope
from repro.xmlcore.tree import Element


class TestStage:
    def test_submit_returns_future(self):
        with Stage("test", workers=2) as stage:
            assert stage.submit(lambda: 5).result(timeout=5) == 5

    def test_stats_recorded(self):
        with Stage("test", workers=1) as stage:
            stage.submit(lambda: None, kind="a").result(timeout=5)
            stage.submit(lambda: None, kind="a").result(timeout=5)
            stage.submit(lambda: None, kind="b").result(timeout=5)
        snap = stage.stats.snapshot()
        assert snap["events"] == 3
        assert snap["per_kind"] == {"a": 2, "b": 1}
        assert snap["failures"] == 0

    def test_failure_recorded_and_raised(self):
        with Stage("test", workers=1) as stage:
            future = stage.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                future.result(timeout=5)
        assert stage.stats.failures == 1

    def test_mean_service_time(self):
        with Stage("test", workers=1) as stage:
            stage.submit(lambda: None).result(timeout=5)
        assert stage.stats.mean_service_time >= 0.0

    def test_workers_property(self):
        with Stage("test", workers=3) as stage:
            assert stage.workers == 3

    def test_pool_stats_exposed(self):
        with Stage("test", workers=1) as stage:
            stage.submit(lambda: None).result(timeout=5)
        assert stage.pool_stats()["submitted"] == 1


def make_context(*entries: Element) -> MessageContext:
    envelope = Envelope()
    for entry in entries:
        envelope.add_body(entry)
    return MessageContext.for_envelope(envelope)


class Recorder(Handler):
    def __init__(self, name, log):
        self.name = name
        self._log = log

    def invoke_request(self, context):
        self._log.append(f"req:{self.name}")

    def invoke_response(self, context):
        self._log.append(f"resp:{self.name}")


class TestHandlerChain:
    def test_request_order_first_to_last(self):
        log = []
        chain = HandlerChain([Recorder("a", log), Recorder("b", log)])
        chain.run_request(make_context(Element("x")))
        assert log == ["req:a", "req:b"]

    def test_response_order_last_to_first(self):
        log = []
        chain = HandlerChain([Recorder("a", log), Recorder("b", log)])
        chain.run_response(make_context(Element("x")))
        assert log == ["resp:b", "resp:a"]

    def test_add_and_len_and_names(self):
        chain = HandlerChain()
        chain.add(Recorder("a", [])).add(Recorder("b", []))
        assert len(chain) == 2
        assert chain.names() == ["a", "b"]

    def test_context_seeded_from_envelope(self):
        entry = Element("{urn:x}op")
        context = make_context(entry)
        assert context.request_entries == [entry]
        assert context.response_entries == []
        assert not context.packed

    def test_handler_can_rewrite_entries(self):
        class Splitter(Handler):
            def invoke_request(self, context):
                wrapper = context.request_entries[0]
                context.request_entries = wrapper.element_children()

        wrapper = Element("wrapper")
        a, b = wrapper.subelement("a"), wrapper.subelement("b")
        context = make_context(wrapper)
        HandlerChain([Splitter()]).run_request(context)
        assert context.request_entries == [a, b]


@pytest.fixture
def instrumented_server():
    transport = InProcTransport()
    metrics = PackMetricsHandler()
    chain = HandlerChain([metrics, *spi_server_handlers()])
    server = build_server(ServerConfig(services=[make_echo_service()], architecture="staged", transport=transport, address="diag", chain=chain))
    with server.running() as address:
        proxy = build_proxy(ClientConfig(transport, address, namespace=ECHO_NS, service_name="EchoService"))
        yield proxy, metrics
        proxy.close()


class TestPackMetricsHandler:
    def test_plain_call_recorded(self, instrumented_server):
        proxy, metrics = instrumented_server
        proxy.call("echo", payload="x")
        snap = metrics.snapshot()
        assert snap["plain_messages"] == 1
        assert snap["packed_messages"] == 0
        assert snap["amortization"] == 1.0

    def test_packed_call_recorded(self, instrumented_server):
        proxy, metrics = instrumented_server
        with PackBatch(proxy) as batch:
            for i in range(8):
                batch.call("echo", payload=str(i))
        snap = metrics.snapshot()
        assert snap["packed_messages"] == 1
        assert snap["amortization"] == 8.0
        assert snap["pack_degree"]["buckets"]["<=8"] == 1

    def test_amortization_mixes_plain_and_packed(self, instrumented_server):
        proxy, metrics = instrumented_server
        proxy.call("echo", payload="a")
        with PackBatch(proxy) as batch:
            batch.call("echo", payload="b")
            batch.call("echo", payload="c")
            batch.call("echo", payload="d")
        assert metrics.amortization == pytest.approx(2.0)  # (1 + 3) / 2

    def test_execute_time_histogram_fills(self, instrumented_server):
        proxy, metrics = instrumented_server
        proxy.call("echo", payload="x")
        assert metrics.execute_ms.total == 1
