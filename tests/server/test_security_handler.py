"""End-to-end WS-Security enforcement: signed clients vs the verify handler."""

import pytest

from repro.apps.echo import ECHO_NS, make_echo_service
from repro.client.proxy import ServiceProxy
from repro.core.assembler import ClientAssembler
from repro.core.batch import PackBatch
from repro.core.dispatcher import spi_server_handlers
from repro.errors import SoapFaultError
from repro.http.connection import HttpConnection
from repro.http.message import Headers, HttpRequest
from repro.server.handlers import HandlerChain
from repro.server.security_handler import SecurityVerifyHandler
from repro.soap.constants import SOAP_CONTENT_TYPE, XSI_TYPE_ATTR
from repro.soap.deserializer import decode_request_envelope, parse_rpc_request, read_request_envelope
from repro.soap.envelope import Envelope
from repro.soap.wssecurity import Credentials, attach_security_header, verify_security_header
from repro.transport.inproc import InProcTransport
from repro.xmlcore.tree import Element
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy

from ..metrics import counters

SECRETS = {"alice": b"alice-secret", "bob": b"bob-secret"}
ALICE = Credentials("alice", SECRETS["alice"])
MALLORY = Credentials("mallory", b"guess")
WRONG_ALICE = Credentials("alice", b"wrong-secret")


@pytest.fixture(params=[True, False], ids=["required", "optional"])
def secured_env(request):
    required = request.param
    transport = InProcTransport()
    verify = SecurityVerifyHandler(SECRETS.get, required=required)
    server = build_server(ServerConfig(services=[make_echo_service()], architecture="staged", transport=transport, address="secured", chain=HandlerChain([verify, *spi_server_handlers()])))
    with server.running() as address:
        yield transport, address, verify, required


def post(transport, address, body: bytes) -> Envelope:
    """POST raw request bytes; the response envelope."""
    request = HttpRequest(
        "POST", "/services/EchoService", Headers({"Content-Type": SOAP_CONTENT_TYPE}), body
    )
    with HttpConnection(transport, address) as conn:
        return Envelope.parse(conn.request(request).body, server=True)


def signed_pack(*payloads: str) -> bytes:
    assembler = ClientAssembler(ECHO_NS)
    for payload in payloads:
        assembler.add_call("echo", {"payload": payload})
    envelope = assembler.assemble()
    attach_security_header(envelope, ALICE)
    return envelope.to_bytes()


def signed_multiref() -> bytes:
    """An Axis-style rpc/encoded request: the parameter is an ``href``
    to a top-level ``multiRef`` entry, signed as it is written."""
    envelope = Envelope()
    envelope.add_body(Element(f"{{{ECHO_NS}}}echo")).subelement("payload", {"href": "#id0"})
    target = envelope.add_body(Element("multiRef", {"id": "id0", XSI_TYPE_ATTR: "xsd:string"}))
    target.append("shared value")
    attach_security_header(envelope, ALICE)
    return envelope.to_bytes()


def proxy_for(transport, address, credentials=None):
    return build_proxy(ClientConfig(
        transport, address, namespace=ECHO_NS, service_name="EchoService",
        credentials=credentials,
    ))


class TestSecurityEnforcement:
    def test_signed_call_accepted(self, secured_env):
        transport, address, verify, _ = secured_env
        proxy = proxy_for(transport, address, ALICE)
        assert proxy.call("echo", payload="authenticated") == "authenticated"
        assert counters(verify)["security.verified"] == 1

    def test_unsigned_call(self, secured_env):
        transport, address, verify, required = secured_env
        proxy = proxy_for(transport, address)
        if required:
            with pytest.raises(SoapFaultError):
                proxy.call("echo", payload="anon")
        else:
            assert proxy.call("echo", payload="anon") == "anon"
            assert counters(verify)["security.anonymous"] == 1

    def test_unknown_user_rejected(self, secured_env):
        transport, address, verify, _ = secured_env
        proxy = proxy_for(transport, address, MALLORY)
        with pytest.raises(SoapFaultError):
            proxy.call("echo", payload="x")
        assert counters(verify)["security.rejected"] == 1

    def test_wrong_secret_rejected(self, secured_env):
        transport, address, _, _ = secured_env
        proxy = proxy_for(transport, address, WRONG_ALICE)
        with pytest.raises(SoapFaultError):
            proxy.call("echo", payload="x")

    def test_an_answered_call_answers_no_one_else(self, secured_env):
        """After alice's call is answered, the identical call from a
        wrong secret and from nobody each reaches the verifier: the
        wrong secret is refused, and so is nobody where a signature is
        required.  No answer outlives the request it was executed for."""
        transport, address, verify, required = secured_env
        assert proxy_for(transport, address, ALICE).call("echo", payload="same") == "same"
        with pytest.raises(SoapFaultError):
            proxy_for(transport, address, WRONG_ALICE).call("echo", payload="same")
        anonymous = proxy_for(transport, address)
        if required:
            with pytest.raises(SoapFaultError):
                anonymous.call("echo", payload="same")
        else:
            assert anonymous.call("echo", payload="same") == "same"
        assert counters(verify) == {
            "security.anonymous": 0 if required else 1,
            "security.rejected": 2 if required else 1,
            "security.verified": 1,
        }

    def test_signed_packed_batch_accepted(self, secured_env):
        """One signature authenticates the entire packed batch — the
        amortization §4.2 argues for."""
        transport, address, verify, _ = secured_env
        proxy = proxy_for(transport, address, ALICE)
        with PackBatch(proxy) as batch:
            futures = [batch.call("echo", payload=f"m{i}") for i in range(5)]
        assert [f.result(timeout=10) for f in futures] == [f"m{i}" for i in range(5)]
        assert counters(verify)["security.verified"] == 1

    def test_values_mutated_after_the_call_are_not_sent(self, secured_env, monkeypatch):
        """An entry is encoded when it is queued: what is signed, sent
        and executed is the value as it was at ``batch.call``."""
        transport, address, verify, _ = secured_env
        sent: list[bytes] = []
        to_bytes = Envelope.to_bytes
        monkeypatch.setattr(Envelope, "to_bytes", lambda self: sent.append(to_bytes(self)) or sent[-1])
        records = [{"city": "before", "n": 1}]
        proxy = proxy_for(transport, address, ALICE)
        with PackBatch(proxy) as batch:
            future = batch.call("echo", payload=records)
            records[0]["city"] = "after"
            records.append({"city": "appended"})
        assert future.result(timeout=10) == [{"city": "before", "n": 1}]
        assert counters(verify)["security.verified"] == 1
        assert b"before" in sent[0] and b"after" not in sent[0] and b"appended" not in sent[0]

    def test_unsigned_packed_batch_rejected_whole(self, secured_env):
        transport, address, _, required = secured_env
        if not required:
            pytest.skip("optional mode admits anonymous batches")
        proxy = proxy_for(transport, address)
        batch = PackBatch(proxy)
        futures = [batch.call("echo", payload=str(i)) for i in range(3)]
        batch.flush()
        for future in futures:
            assert isinstance(future.exception(timeout=10), SoapFaultError)

    def test_tampered_packed_body_rejected(self, secured_env):
        """Signature covers the body's octets, so changing the bytes sent
        after signing fails: a substituted value, two entries swapped, or
        an entry relocated into the header."""
        transport, address, verify, _ = secured_env
        wire = signed_pack("original", "second")
        accepted = post(transport, address, wire).first_body_entry()
        assert accepted.local_name == "Parallel_Method"
        text = wire.decode("utf-8")
        first = text[text.index('<m0:echo requestID="r0">') : text.index('<m0:echo requestID="r1">')]
        second = text[text.index('<m0:echo requestID="r1">') : text.index("</spi:Parallel_Method>")]
        relocated = second.replace("<m0:echo ", f'<m0:echo xmlns:m0="{ECHO_NS}" ')
        edits = [
            text.replace(">original<", ">tampered<"),
            text.replace(first + second, second + first),
            text.replace(second, "").replace("</SOAP-ENV:Header>", relocated + "</SOAP-ENV:Header>"),
        ]
        for edited in edits:
            assert edited != text
            response = post(transport, address, edited.encode("utf-8"))
            assert response.first_body_entry().local_name == "Fault"
        assert counters(verify) == {
            "security.anonymous": 0, "security.rejected": 3, "security.verified": 1,
        }

    def test_duplicate_security_header_rejected(self, secured_env):
        transport, address, verify, _ = secured_env
        text = signed_pack("x").decode("utf-8")
        start, end = text.index("<wsse:Security"), text.index("</wsse:Security>") + 16
        response = post(transport, address, (text[:end] + text[start:end] + text[end:]).encode())
        assert response.first_body_entry().local_name == "Fault"
        assert counters(verify)["security.rejected"] == 1

    def test_signed_multiref_verifies_and_runs_resolved(self, secured_env):
        """The digest covers the Body as it arrived, before multiref
        resolution rewrites the entries, on either reader."""
        transport, address, verify, _ = secured_env
        wire = signed_multiref()
        for read in (read_request_envelope, decode_request_envelope):
            envelope = read(wire)
            assert verify_security_header(envelope, SECRETS.get) == "alice"
            assert [parse_rpc_request(e).params for e in envelope.body_entries] == [
                {"payload": "shared value"}
            ]
        response = post(transport, address, wire)
        assert response.first_body_entry().element_children()[0].text == "shared value"
        assert counters(verify)["security.verified"] == 1

    def test_must_understand_satisfied_by_verifier(self, secured_env):
        """The signed header is mustUnderstand; the verify handler marks
        it understood so the endpoint does not fault."""
        transport, address, _, _ = secured_env
        proxy = proxy_for(transport, address, ALICE)
        assert proxy.call("echo", payload="ok") == "ok"
