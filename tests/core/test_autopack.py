"""Tests for automatic packing (the paper's future-work feature)."""

import threading
import time

import pytest

from repro.client.proxy import ServiceProxy
from repro.core.autopack import AutoPacker
from repro.core.dispatcher import spi_server_handlers
from repro.errors import PackError, SoapFaultError
from repro.server.handlers import HandlerChain
from repro.server.service import service_from_functions
from repro.transport.inproc import InProcTransport
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy

from ..metrics import counters

NS = "urn:svc:echo"


@pytest.fixture
def env():
    transport = InProcTransport()

    def echo(payload: str) -> str:
        return payload

    def fail(reason: str) -> str:
        raise RuntimeError(reason)

    server = build_server(ServerConfig(services=[service_from_functions("EchoService", NS, {"echo": echo, "fail": fail})], architecture="staged", transport=transport, address="autopack", chain=HandlerChain(spi_server_handlers())))
    with server.running() as address:
        proxy = build_proxy(ClientConfig(
            transport, address, namespace=NS, service_name="EchoService",
            reuse_connections=True,
        ))
        yield proxy, server
        proxy.close()


class TestAutoPacker:
    def test_single_call_completes(self, env):
        proxy, _ = env
        with AutoPacker(proxy, max_delay=0.005) as packer:
            assert packer.call("echo", payload="solo") == "solo"

    def test_window_batches_concurrent_callers(self, env):
        proxy, server = env
        results = {}
        lock = threading.Lock()
        with AutoPacker(proxy, max_batch=64, max_delay=0.05) as packer:
            barrier = threading.Barrier(8, timeout=5)

            def caller(i):
                barrier.wait()
                value = packer.call("echo", payload=f"m{i}")
                with lock:
                    results[i] = value

            threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)

        assert results == {i: f"m{i}" for i in range(8)}
        # all 8 calls should have shared very few SOAP messages
        assert counters(server)["soap.messages"] <= 3
        assert packer.stats.calls == 8
        assert packer.stats.mean_batch_size >= 2

    def test_max_batch_triggers_early_flush(self, env):
        proxy, server = env
        with AutoPacker(proxy, max_batch=2, max_delay=10.0) as packer:
            f1 = packer.submit("echo", payload="a")
            f2 = packer.submit("echo", payload="b")
            assert f1.result(timeout=5) == "a"
            assert f2.result(timeout=5) == "b"
        assert counters(server)["soap.messages"] >= 1

    def test_manual_flush(self, env):
        proxy, _ = env
        packer = AutoPacker(proxy, max_batch=100, max_delay=60.0)
        future = packer.submit("echo", payload="manual")
        packer.flush()
        assert future.result(timeout=5) == "manual"
        packer.close()

    def test_fault_propagates_to_caller(self, env):
        proxy, _ = env
        with AutoPacker(proxy, max_delay=0.005) as packer:
            with pytest.raises(SoapFaultError):
                packer.call("fail", reason="bad")

    def test_submit_after_close_raises(self, env):
        proxy, _ = env
        packer = AutoPacker(proxy)
        packer.close()
        with pytest.raises(PackError, match="closed"):
            packer.submit("echo", payload="x")

    def test_close_flushes_pending(self, env):
        proxy, _ = env
        packer = AutoPacker(proxy, max_batch=100, max_delay=60.0)
        future = packer.submit("echo", payload="pending")
        packer.close()
        assert future.result(timeout=5) == "pending"

    def test_invalid_config_raises(self, env):
        proxy, _ = env
        with pytest.raises(PackError):
            AutoPacker(proxy, max_batch=0)
        with pytest.raises(PackError):
            AutoPacker(proxy, max_delay=-1)

    def test_stats_counts_flushes(self, env):
        proxy, _ = env
        with AutoPacker(proxy, max_batch=1) as packer:
            packer.call("echo", payload="a")
            packer.call("echo", payload="b")
        assert packer.stats.flushes >= 2
        assert packer.stats.packed_calls == 2

    def test_latency_bounded_by_window(self, env):
        proxy, _ = env
        with AutoPacker(proxy, max_batch=1000, max_delay=0.02) as packer:
            start = time.monotonic()
            packer.call("echo", payload="bounded")
            elapsed = time.monotonic() - start
        assert elapsed < 1.0
