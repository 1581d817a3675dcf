"""Unit tests for RPC serialization/deserialization."""

import pytest

from repro.errors import SerializationError, SoapError, SoapFaultError, XmlWellFormednessError
from repro.soap.constants import FAULT_SERVER
from repro.soap.deserializer import (
    decode_response_envelope,
    parse_response_envelope,
    parse_rpc_request,
    parse_rpc_response,
)
from repro.soap.envelope import Envelope
from repro.soap.fault import ClientFaultCause, SoapFault
from repro.soap.serializer import (
    build_fault_envelope,
    build_request_envelope,
    build_response_envelope,
    serialize_rpc_request,
    serialize_rpc_response,
)

NS = "urn:svc:echo"


def wire(envelope: Envelope) -> Envelope:
    """Round an envelope through bytes to exercise the full codec path."""
    return Envelope.parse(envelope.to_bytes(), server=True)


class TestRequestCodec:
    def test_round_trip(self):
        env = wire(build_request_envelope(NS, "echo", {"payload": "hello", "n": 3}))
        req = parse_rpc_request(env.first_body_entry())
        assert req.namespace == NS
        assert req.operation == "echo"
        assert req.params == {"payload": "hello", "n": 3}

    def test_no_params(self):
        env = wire(build_request_envelope(NS, "ping", {}))
        req = parse_rpc_request(env.first_body_entry())
        assert req.params == {}

    def test_rich_params(self):
        params = {
            "cities": ["Beijing", "Shanghai"],
            "options": {"verbose": True, "retries": 2},
            "blob": b"\x00\x01",
        }
        env = wire(build_request_envelope(NS, "query", params))
        assert parse_rpc_request(env.first_body_entry()).params == params

    def test_bad_operation_name_raises(self):
        with pytest.raises(SerializationError):
            serialize_rpc_request(NS, "bad name", {})

    def test_bad_param_name_raises(self):
        with pytest.raises(SerializationError):
            serialize_rpc_request(NS, "op", {"1bad": "x"})

    def test_duplicate_param_raises(self):
        entry = serialize_rpc_request(NS, "op", {"a": "1"})
        entry.children.append(entry.children[0].copy())
        with pytest.raises(ClientFaultCause, match="duplicate"):
            parse_rpc_request(entry)

    def test_matcher_accepts_registered(self):
        operations = {f"{{{NS}}}echo"}
        entry = serialize_rpc_request(NS, "echo", {})
        assert parse_rpc_request(entry, operations).operation == "echo"

    def test_matcher_rejects_unknown_operation(self):
        operations = {f"{{{NS}}}echo"}
        entry = serialize_rpc_request(NS, "other", {})
        with pytest.raises(ClientFaultCause, match="no such operation"):
            parse_rpc_request(entry, operations)

    def test_matcher_rejects_wrong_namespace(self):
        operations = {f"{{{NS}}}echo"}
        entry = serialize_rpc_request("urn:wrong", "echo", {})
        with pytest.raises(ClientFaultCause):
            parse_rpc_request(entry, operations)


class TestResponseCodec:
    def test_round_trip(self):
        env = wire(build_response_envelope(NS, "echo", "result!"))
        resp = parse_rpc_response(env.first_body_entry())
        assert resp.operation == "echo"
        assert resp.value == "result!"

    def test_parse_response_envelope_helper(self):
        env = wire(build_response_envelope(NS, "echo", [1, 2]))
        assert parse_response_envelope(env).value == [1, 2]

    def test_none_result(self):
        env = wire(build_response_envelope(NS, "echo", None))
        assert parse_response_envelope(env).value is None

    def test_response_element_name(self):
        entry = serialize_rpc_response(NS, "echo", 1)
        assert entry.tag == f"{{{NS}}}echoResponse"

    def test_fault_raises(self):
        env = wire(build_fault_envelope(SoapFault(FAULT_SERVER, "exploded", detail="bt")))
        with pytest.raises(SoapFaultError) as excinfo:
            parse_response_envelope(env)
        assert excinfo.value.faultcode == FAULT_SERVER
        assert excinfo.value.detail == "bt"

    def test_non_response_element_raises(self):
        entry = serialize_rpc_request(NS, "echo", {})
        with pytest.raises(SoapError, match="not an RPC response"):
            parse_rpc_response(entry)

    def test_response_without_return_raises(self):
        entry = serialize_rpc_response(NS, "echo", 1)
        entry.children.clear()
        with pytest.raises(SoapError, match="exactly one"):
            parse_rpc_response(entry)


class TestClientReaderRefusesNonCharsetCodecs:
    @pytest.mark.parametrize(
        "name", ["unicode_escape", "raw_unicode_escape", "idna", "punycode"]
    )
    def test_declared_non_charset_codec_is_xml_error(self, name):
        body = build_response_envelope(NS, "echo", "\\u00e9").to_bytes()
        assert b'encoding="UTF-8"' in body
        body = body.replace(b'encoding="UTF-8"', f'encoding="{name}"'.encode())
        with pytest.raises(XmlWellFormednessError, match="undecodable"):
            decode_response_envelope(body)
