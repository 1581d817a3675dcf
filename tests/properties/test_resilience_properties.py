"""Partial-success packs as a property.

The invariant: a pack of N entries with K injected failures yields
exactly N response slots — K per-entry faults, N-K results — with
order/identity preserved, on BOTH server architectures, and on a warm
staged server too: one whose operations were measured on the
application stage, so later packs run on the protocol thread.  A single
bad entry must never poison its siblings or collapse the whole message
into one envelope-level fault, and the warm staged server answers every
pack byte for byte as the common one does.
"""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client.proxy import ServiceProxy
from repro.core.batch import PackBatch
from repro.core.dispatcher import spi_server_handlers
from repro.core.packformat import build_parallel_method
from repro.errors import SoapFaultError
from repro.http.message import Headers, HttpRequest
from repro.server.handlers import HandlerChain
from repro.server.service import service_from_functions
from repro.server import ServerConfig, build_server
from repro.soap.constants import SOAP_CONTENT_TYPE
from repro.soap.envelope import Envelope
from repro.soap.serializer import serialize_rpc_request
from repro.transport.inproc import InProcTransport
from repro.client.config import ClientConfig, build_proxy

FLAKY_NS = "urn:repro:flaky"


def flaky_echo(payload: str = "", explode: int = 0) -> str:
    """Echo, unless the caller asks this slot to fail."""
    if int(explode):
        raise RuntimeError(f"injected failure for '{payload}'")
    return payload


def make_flaky_service():
    return service_from_functions("FlakyService", FLAKY_NS, {"flakyEcho": flaky_echo})


def _start(architecture, warm=False):
    """A started server and a proxy to it.  ``warm``: one pack of every
    operation has already run (on the stage, which measured it)."""
    transport = InProcTransport()
    server = build_server(ServerConfig(
        services=[make_flaky_service()],
        architecture=architecture,
        transport=transport,
        address=f"flaky-{architecture}",
        chain=HandlerChain(spi_server_handlers()),
    ))
    address = server.start()
    proxy = build_proxy(ClientConfig(
        transport,
        address,
        namespace=FLAKY_NS,
        service_name="FlakyService",
        reuse_connections=True,
    ))
    if warm:
        batch = PackBatch(proxy)
        futures = [batch.call("flakyEcho", payload="warm") for _ in range(2)]
        batch.flush()
        assert [future.result(timeout=5) for future in futures] == ["warm", "warm"]
    return server, proxy


@pytest.fixture(scope="module", params=["common", "staged", "staged-warm"])
def flaky_proxy(request):
    architecture, _, warm = request.param.partition("-")
    server, proxy = _start(architecture, warm=bool(warm))
    yield proxy
    proxy.close()
    server.stop()


@pytest.fixture(scope="module")
def common_and_warm():
    started = [_start("common"), _start("staged", warm=True)]
    yield [server for server, _ in started]
    for server, proxy in started:
        proxy.close()
        server.stop()


# Each pack entry is (payload, should_fail); at most one pack per example.
pack_plans = st.lists(
    st.tuples(
        st.text(alphabet=string.ascii_letters + string.digits + " ", max_size=20),
        st.booleans(),
    ),
    min_size=1,
    max_size=10,
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(plan=pack_plans)
def test_pack_with_failures_yields_exactly_n_slots(flaky_proxy, plan):
    batch = PackBatch(flaky_proxy)
    futures = [
        batch.call("flakyEcho", payload=payload, explode=int(should_fail))
        for payload, should_fail in plan
    ]
    batch.flush()

    # exactly N slots, every one settled — nothing hangs, nothing is lost
    assert len(futures) == len(plan)
    assert all(f.done() for f in futures)

    for future, (payload, should_fail) in zip(futures, plan):
        if should_fail:
            error = future.exception(timeout=5)
            assert isinstance(error, SoapFaultError)
            # a service exception is the server's fault, and it names
            # this entry's payload — proof the fault is per-entry
            assert error.faultcode.endswith("Server")
            assert payload in error.faultstring
            assert not error.is_retryable()
        else:
            # siblings of a failing entry still answer, in order
            assert future.result(timeout=5) == payload


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(plan=pack_plans)
def test_fault_count_matches_injected_failures(flaky_proxy, plan):
    batch = PackBatch(flaky_proxy)
    futures = [
        batch.call("flakyEcho", payload=p, explode=int(fail)) for p, fail in plan
    ]
    batch.flush()
    faults = sum(1 for f in futures if f.exception(timeout=5) is not None)
    assert faults == sum(1 for _, fail in plan if fail)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(plan=pack_plans)
def test_warm_staged_answers_byte_for_byte_as_common(common_and_warm, plan):
    entries = [
        serialize_rpc_request(FLAKY_NS, "flakyEcho", {"payload": p, "explode": int(fail)})
        for p, fail in plan
    ]
    envelope = Envelope()
    envelope.add_body(build_parallel_method(entries))
    request = HttpRequest(
        "POST",
        "/services/FlakyService",
        Headers({"Content-Type": SOAP_CONTENT_TYPE}),
        envelope.to_bytes(),
    )
    common, warm = (server.endpoint(request) for server in common_and_warm)
    assert warm.status == common.status == 200
    assert warm.body == common.body
