"""Adaptive client resilience end-to-end: hedging, AIMD gating,
deadline-rebased I/O timeouts.

Determinism comes from controlling the *wire*, not from sleeping and
hoping: a straggler transport stalls exactly the connections the test
names, the client rollup is primed directly so the hedge trigger is a
known number, and the limiter is occupied by hand where gating is under
test.
"""

import re
import threading
import time

import pytest

from repro.apps.echo import ECHO_NS, ECHO_SERVICE, make_echo_service
from repro.client.config import ClientConfig, build_proxy
from repro.client.proxy import CLIENT_ROLLUP_PREFIX
from repro.core.batch import PackBatch
from repro.core.dispatcher import spi_server_handlers
from repro.errors import SoapFaultError, TransportError
from repro.resilience.hedge import HedgePolicy
from repro.resilience.deadline import wire_timeout
from repro.resilience.limiter import AdaptiveLimiter
from repro.resilience.policy import CallPolicy
from repro.server import ServerConfig, build_server
from repro.server.handlers import HandlerChain
from repro.transport.base import Channel, Transport
from ..transport.chaos import ChaosTransport
from repro.transport.inproc import InProcTransport

STRAGGLE_S = 0.25


class _StragglerChannel(Channel):
    """Delegating channel whose next recv stalls for ``delay_s`` (0 = no
    stall); every sendall is recorded on the owning transport."""

    def __init__(self, inner, transport, delay_s):
        self._inner = inner
        self._transport = transport
        self.delay_s = delay_s

    def sendall(self, data):
        with self._transport._lock:
            self._transport.sent.append(bytes(data))
        self._inner.sendall(data)

    def recv(self, max_bytes=65536):
        delay_s, self.delay_s = self.delay_s, 0.0
        if delay_s:
            time.sleep(delay_s)
        return self._inner.recv(max_bytes)

    def close(self):
        self._inner.close()

    def set_timeout(self, timeout):
        self._inner.set_timeout(timeout)


class StragglerTransport(Transport):
    """Outbound connections whose index is in ``straggle`` stall.

    The server side is untouched, so a hedged retry over a *fresh*
    connection sails past the stall — the tail-at-scale scenario in
    miniature, with no randomness at all.
    """

    def __init__(self, base, *, straggle=frozenset({0}), delay_s=STRAGGLE_S):
        self.base = base
        self.delay_s = delay_s
        self._straggle = set(straggle)
        self.channels = []
        self.sent = []  # every request put on the wire, in send order
        self._lock = threading.Lock()

    def listen(self, address):
        return self.base.listen(address)

    def connect(self, address, timeout=None):
        inner = self.base.connect(address, timeout)
        with self._lock:
            stall = self.delay_s if len(self.channels) in self._straggle else 0.0
            channel = _StragglerChannel(inner, self, stall)
            self.channels.append(channel)
        return channel


def start_echo_server(transport):
    server = build_server(ServerConfig(
        services=[make_echo_service()],
        architecture="staged",
        backend="threaded",
        transport=transport,
        address="resilient-client",
        chain=HandlerChain(spi_server_handlers()),
        app_workers=4,
    ))
    address = server.start()
    return server, address


def make_hedging_proxy(base, address, *, client_transport=None, hedge=None,
                       limiter=None, policy=None, reuse_connections=False):
    return build_proxy(ClientConfig(
        client_transport if client_transport is not None else base,
        address,
        namespace=ECHO_NS,
        service_name=ECHO_SERVICE,
        hedge=hedge,
        limiter=limiter,
        policy=policy,
        reuse_connections=reuse_connections,
    ))


def remaining_ms(sent):
    """The ``<res:Deadline remainingMs>`` each sent request carried."""
    return [int(re.search(rb'remainingMs="(\d+)"', data).group(1)) for data in sent]


def prime_rollup(proxy, operation, latency_s=0.005, samples=32):
    """Warm the client rollup so the hedge trigger is a known number."""
    rollup = proxy.metrics.rollup(CLIENT_ROLLUP_PREFIX + ECHO_NS, operation)
    for _ in range(samples):
        rollup.observe(latency_s, None)
    return rollup


FAST_HEDGE = HedgePolicy(quantile=0.5, min_samples=16, min_trigger_s=0.001)


class TestHedgedRequests:
    def test_hedge_fires_and_wins_against_a_straggler(self):
        base = InProcTransport()
        server, address = start_echo_server(base)
        try:
            wire = StragglerTransport(base)
            proxy = make_hedging_proxy(
                base, address, client_transport=wire, hedge=FAST_HEDGE,
                policy=CallPolicy(deadline=5.0),
            )
            prime_rollup(proxy, "echo")
            started = time.perf_counter()
            assert proxy.echo(payload="tail") == "tail"
            elapsed = time.perf_counter() - started
            # the hedge answered long before the straggler's stall ended
            assert elapsed < STRAGGLE_S
            assert proxy.metrics.counter("client.hedges").value == 1
            assert proxy.metrics.counter("client.hedge_wins").value == 1
            assert proxy.connections_opened == 2  # primary + hedge
            # the hedge re-based the deadline header: it left after the
            # trigger fired, with less of the whole-call budget
            primary, hedge = remaining_ms(wire.sent)
            assert hedge < primary <= 5000
            proxy.close()
        finally:
            server.stop()

    def test_losers_late_result_is_discarded_from_the_rollup(self):
        base = InProcTransport()
        server, address = start_echo_server(base)
        try:
            wire = StragglerTransport(base)
            proxy = make_hedging_proxy(
                base, address, client_transport=wire, hedge=FAST_HEDGE
            )
            rollup = prime_rollup(proxy, "echo")
            assert proxy.echo(payload="tail") == "tail"
            assert rollup.calls == 33  # 32 primed + the winner
            time.sleep(STRAGGLE_S + 0.1)  # let the abandoned loser finish
            # the loser's stall-inflated latency never lands in the
            # sketch, so it cannot drag the trigger quantile upward
            assert rollup.calls == 33
            proxy.close()
        finally:
            server.stop()

    def test_exhausted_budget_suppresses_the_hedge(self):
        base = InProcTransport()
        server, address = start_echo_server(base)
        try:
            # a bucket holding exactly one token that refills glacially
            stingy = HedgePolicy(
                quantile=0.5, min_samples=16, min_trigger_s=0.001,
                budget_rate=0.001, budget_burst=1.0,
            )
            # stall the two *primaries* (connections 0 and 2); the hedge's
            # own connection 1 stays fast
            wire = StragglerTransport(base, straggle={0, 2})
            proxy = make_hedging_proxy(
                base, address, client_transport=wire, hedge=stingy
            )
            prime_rollup(proxy, "echo")
            assert proxy.echo(payload="one") == "one"  # spends the token
            started = time.perf_counter()
            assert proxy.echo(payload="two") == "two"  # budget empty
            elapsed = time.perf_counter() - started
            assert elapsed >= STRAGGLE_S  # waited out the straggler
            assert proxy.metrics.counter("client.hedges").value == 1
            proxy.close()
        finally:
            server.stop()

    def test_abandoned_loser_never_resends_on_a_pooled_proxy(self):
        base = InProcTransport()
        server, address = start_echo_server(base)
        try:
            wire = StragglerTransport(base, straggle=set())
            proxy = make_hedging_proxy(
                base, address, client_transport=wire, hedge=FAST_HEDGE,
                reuse_connections=True,
            )
            # a cold rollup never hedges: this call only warms connection 0
            assert proxy.echo(payload="warm") == "warm"
            prime_rollup(proxy, "echo")
            wire.channels[0].delay_s = STRAGGLE_S  # the warm primary stalls
            sends_before = len(wire.sent)
            assert proxy.echo(payload="tail") == "tail"
            assert proxy.metrics.counter("client.hedges").value == 1
            time.sleep(STRAGGLE_S + 0.1)  # let the abandoned loser wake up
            # primary + hedge: the loser, its warm connection closed by
            # the race, must not take the dead-keep-alive re-send branch
            assert len(wire.sent) - sends_before == 2
            proxy.close()
        finally:
            server.stop()

    def test_cast_batches_are_never_hedged(self):
        base = InProcTransport()
        server, address = start_echo_server(base)
        try:
            wire = StragglerTransport(base)
            proxy = make_hedging_proxy(
                base, address, client_transport=wire, hedge=FAST_HEDGE
            )
            prime_rollup(proxy, "Parallel_Method")
            batch = PackBatch(proxy)
            batch.call("echo", payload="kept")
            batch.cast("echo", payload="fire-and-forget")
            started = time.perf_counter()
            futures = batch.flush()
            elapsed = time.perf_counter() - started
            assert futures[0].result(timeout=5) == "kept"
            # a duplicate pack would run the cast's side effect twice,
            # so the flush waited out the straggler instead of hedging
            assert elapsed >= STRAGGLE_S
            assert proxy.metrics.counter("client.hedges").value == 0
            proxy.close()
        finally:
            server.stop()


class TestAdaptiveLimiterClient:
    def test_full_window_gates_locally_without_touching_the_wire(self):
        base = InProcTransport()
        server, address = start_echo_server(base)
        try:
            limiter = AdaptiveLimiter(initial=1.0)
            proxy = make_hedging_proxy(base, address, limiter=limiter)
            assert limiter.try_acquire()  # occupy the single slot
            with pytest.raises(SoapFaultError) as excinfo:
                proxy.echo(payload="gated")
            assert excinfo.value.faultcode == "Server.Busy"
            assert excinfo.value.is_retryable()
            assert proxy.metrics.counter("client.limiter.gated").value == 1
            assert proxy.connections_opened == 0  # shed before the wire
            limiter.release("success")
            assert proxy.echo(payload="admitted") == "admitted"
            proxy.close()
        finally:
            server.stop()

    def test_busy_storm_collapses_the_window_then_recovery_reopens_it(self):
        base = InProcTransport()
        server, address = start_echo_server(base)
        try:
            chaos = ChaosTransport(base, busy_rate=1.0, seed=5)
            limiter = AdaptiveLimiter(initial=8.0)
            proxy = make_hedging_proxy(
                base, address, client_transport=chaos, limiter=limiter
            )
            for _ in range(6):
                with pytest.raises(SoapFaultError):
                    proxy.echo(payload="storm")
            collapsed = limiter.limit
            assert collapsed <= 1.0  # halved per shed down to the floor
            assert limiter.snapshot()["overloads"] == 6
            chaos.busy_rate = 0.0  # the server recovers
            for _ in range(8):
                assert proxy.echo(payload="calm") == "calm"
            assert limiter.limit > collapsed
            # the published gauge tracks the live window
            assert proxy.metrics.gauge("client.limiter.limit").value == (
                pytest.approx(limiter.limit)
            )
            proxy.close()
        finally:
            server.stop()

    def test_gated_wave_retries_through_the_reopened_window(self):
        """A wave wider than the window is gated locally, backs off
        under its policy and converges once a slot frees up."""
        base = InProcTransport()
        server, address = start_echo_server(base)
        try:
            limiter = AdaptiveLimiter(initial=1.0)
            policy = CallPolicy(
                retries=500, backoff_base=0.002, backoff_max=0.01, jitter=0.0
            )
            proxy = make_hedging_proxy(
                base, address, limiter=limiter, policy=policy
            )
            assert limiter.try_acquire()  # window full: every caller is gated
            results = []
            wave = [
                threading.Thread(
                    target=lambda i=i: results.append(proxy.echo(payload=f"w{i}"))
                )
                for i in range(4)
            ]
            for thread in wave:
                thread.start()
            gated = proxy.metrics.counter("client.limiter.gated")
            give_up = time.monotonic() + 10
            # every retry attempt re-checks the window, so the gate count
            # outgrows the wave while the slot stays taken
            while gated.value < 3 * len(wave):
                assert time.monotonic() < give_up, "the wave was never gated"
                time.sleep(0.001)
            assert proxy.connections_opened == 0  # nothing reached the wire
            limiter.release("success")  # the window reopens
            for thread in wave:
                thread.join(timeout=10)
            assert sorted(results) == ["w0", "w1", "w2", "w3"]
            proxy.close()
        finally:
            server.stop()


class TestDeadlineRebasedIo:
    def test_wire_timeout_carries_grace_over_the_budget(self):
        assert wire_timeout(None) is None
        assert wire_timeout(0.1) == pytest.approx(0.15)  # floor-dominated
        assert wire_timeout(10.0) == pytest.approx(12.5)  # fraction-dominated

    def test_hung_server_cannot_eat_the_whole_deadline(self):
        # a listener nobody accepts on: connects succeed, recv hangs
        base = InProcTransport()
        listener = base.listen("hung-server")
        try:
            wire = StragglerTransport(base, straggle=set())
            proxy = make_hedging_proxy(base, "hung-server", client_transport=wire)
            policy = CallPolicy(
                timeout=0.2, deadline=0.4, retries=5,
                backoff_base=0.0, jitter=0.0,
            )
            started = time.perf_counter()
            with pytest.raises(TransportError, match="timed out"):
                proxy.call_with_policy("echo", policy, payload="x")
            elapsed = time.perf_counter() - started
            # attempt 1 gets min(0.2, 0.4) + grace; later attempts only
            # what the whole-call deadline has left — never 6 x 0.2
            assert 0.2 <= elapsed < 1.0
            assert proxy.connections_opened >= 2  # it did rebase and retry
            # every attempt re-based its <res:Deadline> header on what the
            # whole-call deadline had left when it was sent
            sent = remaining_ms(wire.sent)
            assert sent[0] == 200 and sent[1] < sent[0]
            assert sent == sorted(sent, reverse=True)
            proxy.close()
        finally:
            listener.close()
