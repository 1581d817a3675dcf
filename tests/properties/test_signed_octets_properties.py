"""Signed octets: WS-Security digests the Body exactly as it was sent.

The signer seals the Body's text and the envelope writes that text; the
server's reader records the Body's span and the verifier digests it
before anything decodes it, so the entries that run are decoded from
the bytes that were verified.  Two properties:

* any single-byte change inside the recorded Body span of a signed pack
  is a parse fault or a ``SecurityError`` on either server reader, and
  the deployed endpoint (verifier + the SPI pair) executes nothing; so
  is a namespace binding changed on the Envelope, outside the span,
  which would change what the span's octets mean;
* bodies holding non-ASCII text, ``\\r``, ``&`` or ``<``, or 100 KB
  strings all verify, on both readers, and decode to the values signed.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.echo import ECHO_NS, make_echo_service
from repro.core.assembler import ClientAssembler
from repro.core.dispatcher import spi_server_handlers
from repro.errors import ReproError, SecurityError
from repro.http.message import Headers, HttpRequest
from repro.server.container import ServiceContainer
from repro.server.endpoint import SoapEndpoint
from repro.server.handlers import HandlerChain
from repro.server.security_handler import SecurityVerifyHandler
from repro.soap.deserializer import decode_request_envelope, parse_rpc_request, read_request_envelope
from repro.soap.wssecurity import Credentials, attach_security_header, verify_security_header

SECRETS = {"alice": b"alice-secret"}
READERS = (decode_request_envelope, read_request_envelope)


def signed_pack(payloads) -> bytes:
    assembler = ClientAssembler(ECHO_NS)
    for payload in payloads:
        assembler.add_call("echo", {"payload": payload})
    envelope = assembler.assemble()
    attach_security_header(envelope, Credentials("alice", SECRETS["alice"]))
    return envelope.to_bytes()


def body_span(wire: bytes) -> tuple[int, int]:
    """The recorded Body span of ``wire``, in bytes."""
    envelope = read_request_envelope(wire)
    head = envelope.source[: envelope.body_start].encode("utf-8")
    body = envelope.source[envelope.body_start : envelope.body_end].encode("utf-8")
    return len(head), len(head) + len(body)


PACK = signed_pack([{"city": "Beijing", "n": 7, "ok": True}, [1.5, None, "a&b"], "Shanghai é" * 8])
START, END = body_span(PACK)


class _Endpoint:
    """The deployed secured chain over the echo service, counting what
    it executes."""

    def __init__(self):
        self.executed = []
        container = ServiceContainer([make_echo_service()])
        chain = HandlerChain([SecurityVerifyHandler(SECRETS.get), *spi_server_handlers()])
        self.endpoint = SoapEndpoint(container, self._execute, chain=chain)
        self._container = container

    def _execute(self, entries, context):
        self.executed += entries
        return [self._container.execute_entry(e) for e in entries]

    def post(self, body: bytes):
        return self.endpoint(
            HttpRequest("POST", "/services/EchoService", Headers({"SOAPAction": '""'}), body)
        )


def test_the_unchanged_pack_verifies_and_runs():
    assert PACK[START:END].startswith(b"<SOAP-ENV:Body>")
    assert PACK[START:END].endswith(b"</SOAP-ENV:Body>")
    for read in READERS:
        assert verify_security_header(read(PACK), SECRETS.get) == "alice"
    server = _Endpoint()
    assert server.post(PACK).status == 200
    assert len(server.executed) == 3


ENVELOPE_START = b"<SOAP-ENV:Envelope "
XSI_DECLARATION = b'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
XSD_DECLARATION = b'xmlns:xsd="http://www.w3.org/2001/XMLSchema"'


@pytest.mark.parametrize(
    "old, new",
    [
        (XSI_DECLARATION, b'xmlns:xsi="urn:x"'),
        (XSD_DECLARATION, b'xmlns:xsd="urn:x"'),
        (ENVELOPE_START, ENVELOPE_START + b'xmlns="urn:x" '),
        (ENVELOPE_START, ENVELOPE_START + b'xmlns:ns1="urn:x" '),
    ],
    ids=["xsi-rebound", "xsd-rebound", "default-added", "prefix-added"],
)
def test_a_changed_binding_outside_the_span_never_verifies(old, new):
    """The Body's octets mean what the Envelope's bindings say: an
    ``xsi`` rebound on the root would read every typed value as
    untyped with not one Body byte changed."""
    assert PACK[:START].count(old) == 1
    mutated = PACK[:START].replace(old, new) + PACK[START:]
    for read in READERS:
        envelope = read(mutated)
        assert envelope.source[envelope.body_start : envelope.body_end].encode() == PACK[START:END]
        with pytest.raises(SecurityError, match="namespace bindings"):
            verify_security_header(envelope, SECRETS.get)
    server = _Endpoint()
    assert server.post(mutated).status >= 400
    assert server.executed == []


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_changed_body_byte_never_verifies(data):
    index = data.draw(st.integers(START, END - 1), label="index")
    near = st.sampled_from([PACK[index] ^ 0x20, PACK[index] ^ 0x01])  # case, last bit
    byte = data.draw(st.one_of(near, st.integers(0, 255)).filter(lambda b: b != PACK[index]))
    mutated = PACK[:index] + bytes([byte]) + PACK[index + 1 :]
    for read in READERS:
        try:
            envelope = read(mutated)
        except ReproError:
            continue  # a parse fault
        with pytest.raises(SecurityError):
            verify_security_header(envelope, SECRETS.get)
    server = _Endpoint()
    assert server.post(mutated).status >= 400
    assert server.executed == []


# Text the signer must carry through unchanged: markup characters, CR,
# non-ASCII (BMP and astral), beside plain letters.
tricky = st.text(alphabet=st.sampled_from("ab <&>\"'\r\n\t]é€中😀"), max_size=40)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.one_of(tricky, st.lists(tricky, max_size=3)), min_size=1, max_size=4))
def test_tricky_bodies_verify_and_decode_as_signed(payloads):
    wire = signed_pack(payloads)
    for read in READERS:
        envelope = read(wire)
        assert verify_security_header(envelope, SECRETS.get) == "alice"
        entries = envelope.body_entries[0].element_children()
        assert [parse_rpc_request(e).params["payload"] for e in entries] == payloads


@pytest.mark.parametrize("fill", ["x", "é", "<&>\r\n"])
def test_a_100_kb_string_verifies(fill):
    payload = fill * (100_000 // len(fill))
    wire = signed_pack([payload, "small"])
    for read in READERS:
        envelope = read(wire)
        assert verify_security_header(envelope, SECRETS.get) == "alice"
        entries = envelope.body_entries[0].element_children()
        assert parse_rpc_request(entries[0]).params["payload"] == payload
