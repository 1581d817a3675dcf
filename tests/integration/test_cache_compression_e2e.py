"""End-to-end tests for the client response cache + negotiated
compression, composed with SPI packs, keep-alive, retries and chaos.

The load-bearing guarantees:

* with both features on, answers are still correct and the
  counters (``cache.client.*``, ``compress.*``) move;
* a retrying call never satisfies itself from a cached body — the
  cache consult sits *outside* the retry loop, so every retry attempt
  goes to the wire;
* invalidation is absolute: after ``invalidate()`` the next call hits
  the wire even if an identical response was cached moments before;
* fault responses are never cached, and a ``cast`` (one-way, side
  effects) poisons a batch's cacheability.
"""

from repro.apps.echo import make_echo_service
from repro.client.cache import CachePolicy, ResponseCache
from repro.core.batch import PackBatch, PackedInvoker
from repro.core.dispatcher import spi_server_handlers
from repro.client.invoker import Call
from repro.http.compression import CompressionPolicy
from repro.obs import Observability
from repro.resilience.policy import CallPolicy
from repro.server.handlers import HandlerChain
from ..transport.chaos import ChaosTransport
from repro.transport.inproc import InProcTransport

from repro.bench.workloads import echo_calls, echo_testbed
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy


def full_stack_testbed(observability):
    return echo_testbed(
        profile="inproc",
        architecture="staged",
        observability=observability,
        compression=CompressionPolicy(min_size=64),
    )


class TestFullStack:
    def test_packed_calls_with_everything_on(self):
        obs = Observability()
        with full_stack_testbed(obs) as bed:
            cache = ResponseCache(
                CachePolicy(ttl=None), registry=obs.registry
            )
            proxy = bed.make_proxy(
                reuse_connections=True,
                response_cache=cache,
                accept_encoding="gzip, deflate",
                request_compression=CompressionPolicy(min_size=64),
            )
            invoker = PackedInvoker(proxy)
            calls = Call.many(
                "echo", [{"payload": f"payload-{i}" * 20} for i in range(4)]
            )
            first = invoker.invoke_all(calls)
            second = invoker.invoke_all(calls)
            proxy.close()
        assert first == second == [f"payload-{i}" * 20 for i in range(4)]
        registry = obs.registry
        assert registry.counter("cache.client.miss").value == 1
        assert registry.counter("cache.client.hit").value == 1
        assert registry.counter("compress.responses").value >= 1
        assert registry.counter("compress.bytes_saved").value > 0

    def test_mutating_payloads_stay_correct_under_compression(self):
        obs = Observability()
        with full_stack_testbed(obs) as bed:
            proxy = bed.make_proxy(
                accept_encoding="gzip",
                request_compression=CompressionPolicy(),
            )
            for i in range(3):
                payload = f"<&special> round {i} " * 50
                assert proxy.call("echo", payload=payload) == payload
            proxy.close()

    def test_coding_both_ways_moves_a_tenth_of_the_identity_bytes(self):
        """The Fig. 7 shape, a 4 x 100 KB echo pack, counted on the
        shaped link: identity against request + response coding."""

        def bytes_per_pack(coded):
            policy = CompressionPolicy() if coded else None
            with echo_testbed(profile="lan", compression=policy) as bed:
                proxy = bed.make_proxy(
                    accept_encoding="gzip, deflate" if coded else None,
                    request_compression=policy,
                )
                calls = echo_calls(4, 100_000)
                assert PackedInvoker(proxy).invoke_all(calls) == [
                    call.params["payload"] for call in calls
                ]
                proxy.close()
                links = bed.transport.wire_stats()
            return links["uplink"]["bytes"] + links["downlink"]["bytes"]

        assert bytes_per_pack(coded=True) <= 0.10 * bytes_per_pack(coded=False)


class TestRetryInterplay:
    def test_retries_go_to_the_wire_not_the_cache(self):
        """A request dropped by chaos must be answered by a retry's
        fresh wire exchange; the cache only serves *before* the retry
        loop starts, never mid-loop."""
        obs = Observability()
        transport = ChaosTransport(InProcTransport(), drop_rate=0.5, seed=7)
        server = build_server(ServerConfig(services=[make_echo_service()], architecture="staged", transport=transport, address="cache-chaos", chain=HandlerChain(spi_server_handlers()), observability=obs))
        address = server.start()
        try:
            cache = ResponseCache(CachePolicy(ttl=None), registry=obs.registry)
            from repro.apps.echo import ECHO_NS, ECHO_SERVICE
            from repro.client.proxy import ServiceProxy

            proxy = build_proxy(ClientConfig(
                transport,
                address,
                namespace=ECHO_NS,
                service_name=ECHO_SERVICE,
                response_cache=cache,
            ))
            policy = CallPolicy(timeout=30, retries=6, backoff_base=0.001)
            results = [
                proxy.call_with_policy("echo", policy, payload=f"p{i}")
                for i in range(6)
            ]
            proxy.close()
        finally:
            server.stop()
        assert results == [f"p{i}" for i in range(6)]
        # every distinct call was a cache miss resolved on the wire
        assert cache.stats().misses == 6
        assert cache.stats().hits == 0

    def test_invalidation_forces_next_call_to_the_wire(self):
        obs = Observability()
        with full_stack_testbed(obs) as bed:
            cache = ResponseCache(CachePolicy(ttl=None))
            proxy = bed.make_proxy(response_cache=cache)
            assert proxy.call("echo", payload="v") == "v"
            assert proxy.call("echo", payload="v") == "v"
            assert cache.stats().hits == 1
            cache.invalidate()
            assert proxy.call("echo", payload="v") == "v"
            assert cache.stats().misses == 2
            proxy.close()


class TestCacheScope:
    def test_fault_responses_are_not_cached(self):
        obs = Observability()
        with full_stack_testbed(obs) as bed:
            cache = ResponseCache(CachePolicy(ttl=None))
            proxy = bed.make_proxy(response_cache=cache)
            from repro.errors import SoapFaultError

            for _ in range(2):
                try:
                    proxy.call("noSuchOperation", x="1")
                except SoapFaultError:
                    pass
            assert len(cache) == 0
            assert cache.stats().hits == 0
            proxy.close()

    def test_cast_poisons_pack_cacheability(self):
        obs = Observability()
        with full_stack_testbed(obs) as bed:
            cache = ResponseCache(CachePolicy(ttl=None))
            proxy = bed.make_proxy(response_cache=cache)
            for _ in range(2):
                batch = PackBatch(proxy)
                value = batch.call("echo", payload="keep")
                batch.cast("echo", payload="fire-and-forget")
                batch.flush()
                assert value.result() == "keep"
            # both flushes hit the wire: nothing cached, nothing served
            assert len(cache) == 0
            assert cache.stats().hits == 0
            proxy.close()

    def test_identical_packs_are_served_from_cache(self):
        obs = Observability()
        with full_stack_testbed(obs) as bed:
            cache = ResponseCache(CachePolicy(ttl=None))
            proxy = bed.make_proxy(response_cache=cache)
            for _ in range(3):
                batch = PackBatch(proxy)
                futures = [batch.call("echo", payload=f"p{i}") for i in range(3)]
                batch.flush()
                assert [f.result() for f in futures] == ["p0", "p1", "p2"]
            assert cache.stats().misses == 1
            assert cache.stats().hits == 2
            proxy.close()
