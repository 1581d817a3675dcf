"""Chaos transport: deterministic injection + client retry convergence."""

import pytest

from repro.apps.echo import ECHO_NS, ECHO_SERVICE, make_echo_service
from repro.client.proxy import ServiceProxy
from repro.core.dispatcher import spi_server_handlers
from repro.errors import SoapFaultError, TransportError
from repro.resilience.policy import CallPolicy
from repro.server.handlers import HandlerChain
from .chaos import BUSY, DROP, PASS, ChaosTransport
from repro.transport.inproc import InProcTransport
from repro.transport.tcp import TcpTransport
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy


@pytest.fixture(params=["threaded", "evented"])
def backend(request):
    """Chaos only perturbs the client side, so both protocol backends
    must converge identically; evented runs over loopback TCP since the
    in-process transport has no selectable socket."""
    return request.param


def make_transport(backend):
    return InProcTransport() if backend == "threaded" else TcpTransport()


@pytest.fixture
def echo_server_factory():
    """Start an echo server on a given transport; stop it afterwards.

    Returns the bound address — fixed string for in-proc, the actual
    (host, port) for TCP backends.
    """
    servers = []

    def start(transport, backend="threaded"):
        address = "chaos-test" if backend == "threaded" else ("127.0.0.1", 0)
        server = build_server(ServerConfig(services=[make_echo_service()], architecture="staged", backend=backend, transport=transport, address=address, chain=HandlerChain(spi_server_handlers()), app_workers=4))
        bound = server.start()
        servers.append(server)
        return bound

    yield start
    for server in servers:
        server.stop()


def make_proxy(transport, address, policy=None):
    return build_proxy(ClientConfig(
        transport,
        address,
        namespace=ECHO_NS,
        service_name=ECHO_SERVICE,
        policy=policy,
    ))


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        a = ChaosTransport(InProcTransport(), drop_rate=0.3, busy_rate=0.2, seed=42)
        b = ChaosTransport(InProcTransport(), drop_rate=0.3, busy_rate=0.2, seed=42)
        assert [a._decide() for _ in range(50)] == [b._decide() for _ in range(50)]

    def test_different_seed_different_pattern(self):
        a = ChaosTransport(InProcTransport(), drop_rate=0.5, seed=1)
        b = ChaosTransport(InProcTransport(), drop_rate=0.5, seed=2)
        assert [a._decide() for _ in range(50)] != [b._decide() for _ in range(50)]

    def test_rates_zero_means_all_pass(self):
        chaos = ChaosTransport(InProcTransport(), seed=0)
        assert all(chaos._decide() == PASS for _ in range(20))
        assert chaos.stats.passed == 20

    def test_rate_one_means_all_drop(self):
        chaos = ChaosTransport(InProcTransport(), drop_rate=1.0, seed=0)
        assert all(chaos._decide() == DROP for _ in range(10))

    def test_rates_validated(self):
        with pytest.raises(TransportError):
            ChaosTransport(InProcTransport(), drop_rate=0.8, busy_rate=0.5)
        with pytest.raises(TransportError):
            ChaosTransport(InProcTransport(), drop_rate=-0.1)


class TestInjection:
    def test_drop_surfaces_as_transport_error(self, echo_server_factory, backend):
        chaos = ChaosTransport(make_transport(backend), drop_rate=1.0, seed=0)
        address = echo_server_factory(chaos.base, backend)
        proxy = make_proxy(chaos, address)
        with pytest.raises(TransportError, match="chaos"):
            proxy.call("echo", payload="x")
        assert chaos.stats.dropped == 1

    def test_busy_surfaces_as_retryable_server_busy_fault(self, echo_server_factory, backend):
        chaos = ChaosTransport(make_transport(backend), busy_rate=1.0, seed=0)
        address = echo_server_factory(chaos.base, backend)
        proxy = make_proxy(chaos, address)
        with pytest.raises(SoapFaultError) as excinfo:
            proxy.call("echo", payload="x")
        assert excinfo.value.faultcode == "Server.Busy"
        assert excinfo.value.is_retryable()
        assert chaos.stats.busied == 1

    def test_passthrough_echo_still_works(self, echo_server_factory, backend):
        chaos = ChaosTransport(make_transport(backend), seed=0)
        address = echo_server_factory(chaos.base, backend)
        proxy = make_proxy(chaos, address)
        assert proxy.call("echo", payload="hello") == "hello"

    def test_delay_mode_calls_injected_sleep(self, echo_server_factory, backend):
        slept = []
        chaos = ChaosTransport(
            make_transport(backend),
            delay_rate=1.0,
            delay_s=0.123,
            seed=0,
            sleep=slept.append,
        )
        address = echo_server_factory(chaos.base, backend)
        proxy = make_proxy(chaos, address)
        assert proxy.call("echo", payload="x") == "x"
        assert slept == [0.123]


class TestRetryConvergence:
    def test_policy_converges_through_30pct_drops(self, echo_server_factory, backend):
        # seed chosen arbitrarily; determinism means this either always
        # passes or never does — drop rate 0.3, 5 retries, expect every
        # call to eventually land
        chaos = ChaosTransport(make_transport(backend), drop_rate=0.3, seed=1234)
        address = echo_server_factory(chaos.base, backend)
        policy = CallPolicy(retries=5, backoff_base=0.001, backoff_max=0.002)
        proxy = make_proxy(chaos, address, policy=policy)
        results = [proxy.call("echo", payload=f"m{i}") for i in range(20)]
        assert results == [f"m{i}" for i in range(20)]
        assert chaos.stats.dropped > 0  # the chaos actually bit
        assert proxy.retries >= chaos.stats.dropped

    def test_no_retries_policy_fails_on_first_drop(self, echo_server_factory, backend):
        chaos = ChaosTransport(make_transport(backend), drop_rate=1.0, seed=0)
        address = echo_server_factory(chaos.base, backend)
        proxy = make_proxy(chaos, address)  # DEFAULT_POLICY: no retries
        with pytest.raises(TransportError):
            proxy.call("echo", payload="x")
        assert proxy.retries == 0

    def test_busy_injection_retried_to_success(self, echo_server_factory, backend):
        # busy_rate=0.4: some calls replay the canned 503, retries must
        # absorb them
        chaos = ChaosTransport(make_transport(backend), busy_rate=0.4, seed=99)
        address = echo_server_factory(chaos.base, backend)
        policy = CallPolicy(retries=6, backoff_base=0.001, backoff_max=0.002)
        proxy = make_proxy(chaos, address, policy=policy)
        results = [proxy.call("echo", payload=f"b{i}") for i in range(15)]
        assert results == [f"b{i}" for i in range(15)]
        assert chaos.stats.busied > 0
