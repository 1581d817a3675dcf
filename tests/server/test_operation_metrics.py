"""Per-operation rows: two registry instruments per *deployed* operation.

``ServiceContainer.deploy`` binds ``operation.<namespace>#<operation>``
``.seconds`` (a sketch) and ``.faults`` (a counter) once per operation.
A request naming anything the container does not serve gets its Client
fault and adds nothing to the registry or to ``/metrics``.
"""

import pytest

from repro.core.dispatcher import spi_server_handlers
from repro.core.packformat import build_parallel_method
from repro.http.message import Headers, HttpRequest
from repro.obs import Observability
from repro.obs.prometheus import render_prometheus
from repro.server import ServerConfig, build_server
from repro.server.handlers import HandlerChain
from repro.server.service import service_from_functions
from repro.soap.constants import SOAP_CONTENT_TYPE
from repro.soap.envelope import Envelope
from repro.soap.serializer import serialize_rpc_request
from repro.transport.inproc import InProcTransport

NS = "urn:svc:rows"


def echo(payload: str) -> str:
    return payload


def post(server, *entries, packed=False):
    envelope = Envelope()
    if packed:
        envelope.add_body(build_parallel_method(list(entries)))
    else:
        for entry in entries:
            envelope.add_body(entry)
    request = HttpRequest(
        "POST",
        "/services/RowService",
        Headers({"Content-Type": SOAP_CONTENT_TYPE}),
        envelope.to_bytes(),
    )
    return server.endpoint(request)


def slots(response, packed=False):
    entries = Envelope.parse(response.body, server=True).body_entries
    return entries[0].element_children() if packed else entries


def instrument_names(registry):
    snapshot = registry.snapshot()
    return {name for kind in ("counters", "gauges", "sketches") for name in snapshot[kind]}


def series(registry):
    """Every ``/metrics`` row the registry renders, value stripped."""
    return {
        line.rsplit(" ", 1)[0]
        for line in render_prometheus(registry).splitlines()
        if not line.startswith("#")
    }


@pytest.fixture(params=["common", "staged"])
def server(request):
    obs = Observability()
    srv = build_server(ServerConfig(
        services=[service_from_functions("RowService", NS, {"echo": echo})],
        architecture=request.param,
        transport=InProcTransport(),
        address=f"rows-{request.param}",
        chain=HandlerChain(spi_server_handlers()),
        observability=obs,
    ))
    with srv.running():
        yield srv


def test_a_made_up_name_binds_nothing(server):
    registry = server.registry
    assert slots(post(server, serialize_rpc_request(NS, "echo", {"payload": "a"})))[
        0
    ].local_name == "echoResponse"
    made_up = post(server, serialize_rpc_request(NS, "madeUp", {"payload": "a"}))
    assert made_up.status == 500
    names, rows = instrument_names(registry), series(registry)
    assert {name for name in names if name.startswith("operation.")} == {
        f"operation.{NS}#echo.seconds",
        f"operation.{NS}#echo.faults",
    }

    for i in range(200):
        namespace = NS if i % 2 else f"urn:made:up:{i}"
        [slot] = slots(post(server, serialize_rpc_request(namespace, f"op{i}", {"payload": "x"})))
        assert slot.findtext("faultcode") == "SOAP-ENV:Client"
    for i in range(10):
        pack = [
            serialize_rpc_request(f"urn:made:up:{j}" if j % 2 else NS, f"pack{i}x{j}", {"payload": "x"})
            for j in range(16)
        ]
        answered = slots(post(server, *pack, packed=True), packed=True)
        assert [slot.findtext("faultcode") for slot in answered] == ["SOAP-ENV:Client"] * 16

    assert instrument_names(registry) == names
    assert series(registry) == rows
    seconds = registry.snapshot()["sketches"][f"operation.{NS}#echo.seconds"]
    assert seconds["count"] == 1
    assert registry.snapshot()["counters"][f"operation.{NS}#echo.faults"] == 0


def test_a_service_deployed_after_construction_gets_its_rows(server):
    server.container.deploy(
        service_from_functions("LateService", "urn:svc:late", {"late": echo})
    )
    [slot] = slots(post(server, serialize_rpc_request("urn:svc:late", "late", {"payload": "x"})))
    assert slot.local_name == "lateResponse"
    [slot] = slots(post(server, serialize_rpc_request("urn:svc:late", "late", {})))
    assert slot.local_name == "Fault"  # a missing parameter
    snapshot = server.registry.snapshot()
    assert snapshot["sketches"]["operation.urn:svc:late#late.seconds"]["count"] == 2
    assert snapshot["counters"]["operation.urn:svc:late#late.faults"] == 1
    labels = 'service="urn:svc:late",operation="late"'
    assert f"repro_operation_faults{{{labels}}} 1" in render_prometheus(server.registry)
