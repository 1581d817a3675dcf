"""End-to-end tests for negotiated compression, composed with SPI
packs, keep-alive, retries and chaos.

The load-bearing guarantees:

* with coding on in both directions, answers are still correct, every
  pack reaches the server and the ``compress.*`` counters move;
* a request dropped on the wire is answered by a retry's fresh
  exchange.
"""

from repro.apps.echo import make_echo_service
from repro.core.batch import PackedInvoker
from repro.core.dispatcher import spi_server_handlers
from repro.client.invoker import Call
from repro.http.compression import CompressionPolicy
from repro.obs import Observability
from repro.resilience.policy import CallPolicy
from repro.server.handlers import HandlerChain
from ..metrics import counters
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
            proxy = bed.make_proxy(
                reuse_connections=True,
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
        assert counters(obs)["soap.packed_messages"] == 2
        assert counters(obs)["compress.responses"] >= 1
        assert counters(obs)["compress.bytes_saved"] > 0

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
    def test_dropped_requests_are_answered_by_a_retry(self):
        """A request dropped by chaos is answered by a retry's fresh
        wire exchange."""
        obs = Observability()
        transport = ChaosTransport(InProcTransport(), drop_rate=0.5, seed=7)
        server = build_server(ServerConfig(services=[make_echo_service()], architecture="staged", transport=transport, address="chaos-drop", chain=HandlerChain(spi_server_handlers()), observability=obs))
        address = server.start()
        try:
            from repro.apps.echo import ECHO_NS, ECHO_SERVICE

            proxy = build_proxy(ClientConfig(
                transport,
                address,
                namespace=ECHO_NS,
                service_name=ECHO_SERVICE,
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
        assert proxy.retries > 0
