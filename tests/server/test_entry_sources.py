"""The entry record against the tree source, at the server.

A packed request reaches the executor as records decoded off the scanner
(``decode_request_envelope``, what every deployment reads) or as trees
(``read_request_envelope``: the source of multiRef graphs, and the
fallback of any document the scanner leaves to it).  The same pack,
mixing a one-way entry, a name nobody deployed, a raising operation and
an entry whose deadline has expired, must be answered byte for byte alike
from both sources, on a common server, on a cold staged one and on a warm
staged one, whose operations were measured on the application stage.
"""

from unittest import mock

import pytest

from repro.core import ClientAssembler, PackBatch, spi_server_handlers
from repro.core.dispatcher import pack_results
from repro.errors import SoapFaultError
from repro.http.message import Headers, HttpRequest
from repro.server import HandlerChain, ServerConfig, build_server, service_from_functions
from repro.server import endpoint as endpoint_module
from repro.soap.constants import SOAP_CONTENT_TYPE
from repro.soap.deserializer import decode_response_envelope, read_request_envelope
from repro.transport.inproc import InProcTransport
from repro.client.config import ClientConfig, build_proxy

NS = "urn:repro:sources"


def echo(payload: str) -> str:
    """Return the payload."""
    return payload


def explode(payload: str) -> str:
    """Raise, naming the payload."""
    raise RuntimeError(f"exploded on {payload!r}")


def notify(payload: str) -> None:
    """Accept a notification."""


class _ExpiresAt:
    """A deadline that has expired from its ``at``-th check on.  Triage
    reads it once per entry, in order, on every server, so the same entry
    is the first one skipped everywhere."""

    def __init__(self, at: int) -> None:
        self.at, self.checks = at, 0

    def expired(self) -> bool:
        self.checks += 1
        return self.checks >= self.at

    def remaining(self) -> float:
        return 60.0


def _pack() -> tuple[HttpRequest, list]:
    assembler = ClientAssembler(NS)
    futures = [
        assembler.add_call("echo", {"payload": "a&<b>"}),
        assembler.add_call("notify", {"payload": "cast"}, one_way=True),
        assembler.add_call("nosuch", {"payload": "x"}),
        assembler.add_call("explode", {"payload": "boom"}),
        assembler.add_call("echo", {"payload": "é"}),
        assembler.add_call("echo", {"payload": "late"}),  # the deadline expires here
    ]
    body = assembler.assemble().to_bytes()
    request = HttpRequest("POST", "/services/Sources", Headers({"Content-Type": SOAP_CONTENT_TYPE}), body)
    return request, futures


def _server(architecture: str, warm: bool):
    transport = InProcTransport()
    server = build_server(ServerConfig(
        services=[service_from_functions("Sources", NS, {"echo": echo, "explode": explode, "notify": notify})],
        architecture=architecture,
        transport=transport,
        address=f"sources-{architecture}-{warm}",
        chain=HandlerChain(spi_server_handlers()),
    ))
    address = server.start()
    if warm:  # one staged pack of every operation measures them
        proxy = build_proxy(ClientConfig(transport, address, namespace=NS, service_name="Sources"))
        batch = PackBatch(proxy)
        futures = [batch.call("echo", payload="w"), batch.call("explode", payload="w")]
        batch.cast("notify", payload="w")
        batch.flush()
        assert futures[0].result(timeout=5) == "w"
        proxy.close()
        # the awaited entries finished on the stage before the answer came
        operations = server.container.operation_metrics
        assert None not in (operations[f"{{{NS}}}{name}"].off_cpu_s for name in ("echo", "explode"))
    return server


def _answer(server, read_trees: bool) -> bytes:
    request, _ = _pack()
    fallbacks = server.registry.counter("soap.reader_fallbacks")
    before = fallbacks.value
    with mock.patch.object(endpoint_module, "extract_deadline", lambda envelope: _ExpiresAt(6)):
        if read_trees:
            with mock.patch.object(endpoint_module, "decode_request_envelope", read_request_envelope):
                response = server.endpoint(request)
        else:
            response = server.endpoint(request)
    assert response.status == 200
    assert fallbacks.value - before == read_trees  # which source read it
    return response.body


@pytest.fixture(scope="module")
def answers():
    bodies = {}
    for architecture, warm in (("common", False), ("staged", False), ("staged", True)):
        for read_trees in (False, True):
            server = _server(architecture, warm)  # cold means cold for both sources
            try:
                bodies[architecture, warm, read_trees] = _answer(server, read_trees)
            finally:
                server.stop()
    return bodies


def test_both_sources_answer_alike_on_every_server(answers):
    reference = answers["common", False, False]
    assert {key: body == reference for key, body in answers.items()} == dict.fromkeys(answers, True)


def test_the_answer_holds_each_kind_of_slot(answers):
    _, futures = _pack()
    slots = pack_results(decode_response_envelope(answers["common", False, False]), futures)
    assert slots[0] == "a&<b>" and slots[4] == "é"
    assert slots[1] is None  # the one-way entry's acknowledgement
    codes = [slot.faultcode if isinstance(slot, SoapFaultError) else None for slot in slots]
    assert codes[2:4] == ["Client", "Server"] and codes[5] == "Server.Timeout"
    assert "nosuch" in slots[2].faultstring and "boom" in slots[3].faultstring
