"""Unit tests for the SOAP envelope model and fault handling."""

import pytest

from repro.errors import SoapError, SoapFaultError
from repro.soap.constants import (
    BODY_TAG,
    ENVELOPE_TAG,
    FAULT_CLIENT,
    FAULT_SERVER,
    HEADER_TAG,
    MUST_UNDERSTAND_ATTR,
)
from repro.soap.envelope import Envelope
from repro.soap.fault import ClientFaultCause, SoapFault, is_fault_body
from repro.xmlcore import parse
from repro.xmlcore.tree import Element


def make_envelope():
    env = Envelope()
    env.add_body(Element("{urn:svc}echo"))
    return env


class TestEnvelopeBuild:
    def test_minimal_round_trip(self):
        env = make_envelope()
        parsed = Envelope.parse(env.to_string(), server=True)
        assert parsed.first_body_entry().tag == "{urn:svc}echo"

    def test_bytes_round_trip(self):
        env = make_envelope()
        parsed = Envelope.parse(env.to_bytes(), server=True)
        assert parsed.first_body_entry().tag == "{urn:svc}echo"

    def test_no_header_element_when_empty(self):
        root = parse(make_envelope().to_string())
        tags = [c.tag for c in root.element_children()]
        assert tags == [BODY_TAG]

    def test_header_entries_serialized(self):
        env = make_envelope()
        env.add_header(Element("{urn:h}token"))
        root = parse(env.to_string())
        assert root.element_children()[0].tag == HEADER_TAG

    def test_must_understand_flag(self):
        env = make_envelope()
        entry = env.add_header(Element("{urn:h}token"), must_understand=True)
        assert entry.get(MUST_UNDERSTAND_ATTR) == "1"

    def test_multiple_body_entries(self):
        env = Envelope()
        env.add_body(Element("{urn:svc}a"))
        env.add_body(Element("{urn:svc}b"))
        parsed = Envelope.parse(env.to_string(), server=True)
        assert len(parsed.body_entries) == 2

    def test_declaration_present(self):
        assert make_envelope().to_string().startswith("<?xml")


class TestEnvelopeParse:
    def test_parse_with_header(self):
        doc = (
            f'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">'
            f"<e:Header><t xmlns='urn:h'>v</t></e:Header>"
            f"<e:Body><op xmlns='urn:s'/></e:Body></e:Envelope>"
        )
        env = Envelope.parse(doc, server=True)
        assert len(env.header_entries) == 1
        assert env.find_header("{urn:h}t") is not None
        assert env.find_header("t") is not None
        assert env.find_header("missing") is None

    def test_wrong_root_raises(self):
        with pytest.raises(SoapError):
            Envelope.parse("<notsoap/>", server=True)

    def test_wrong_envelope_namespace_raises(self):
        doc = '<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body><x/></Body></Envelope>'
        with pytest.raises(SoapError, match="namespace"):
            Envelope.parse(doc, server=True)

    def test_missing_body_raises(self):
        doc = f'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"></e:Envelope>'
        with pytest.raises(SoapError, match="no Body"):
            Envelope.parse(doc, server=True)

    def test_empty_body_raises(self):
        doc = (
            f'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">'
            f"<e:Body></e:Body></e:Envelope>"
        )
        with pytest.raises(SoapError, match="empty"):
            Envelope.parse(doc, server=True)

    def test_trailing_elements_raise(self):
        doc = (
            f'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">'
            f"<e:Body><x/></e:Body><e:Extra/></e:Envelope>"
        )
        with pytest.raises(SoapError, match="after SOAP Body"):
            Envelope.parse(doc, server=True)

    def test_unprocessed_must_understand(self):
        env = make_envelope()
        env.add_header(Element("{urn:h}a"), must_understand=True)
        env.add_header(Element("{urn:h}b"))
        parsed = Envelope.parse(env.to_string(), server=True)
        missed = parsed.unprocessed_must_understand(understood=set())
        assert [e.tag for e in missed] == ["{urn:h}a"]
        assert parsed.unprocessed_must_understand({"{urn:h}a"}) == []


class TestFault:
    def test_round_trip(self):
        fault = SoapFault(FAULT_SERVER, "boom", "urn:actor", "trace")
        parsed = SoapFault.from_element(parse_fault(fault))
        assert parsed == fault

    def test_minimal_round_trip(self):
        fault = SoapFault(FAULT_CLIENT, "bad request")
        parsed = SoapFault.from_element(parse_fault(fault))
        assert parsed == fault

    def test_faultcode_is_qualified_value(self):
        fault = SoapFault(FAULT_SERVER, "x")
        element = parse_fault(fault)
        assert element.findtext("faultcode") == "SOAP-ENV:Server"

    def test_to_exception(self):
        exc = SoapFault(FAULT_SERVER, "boom", detail="why").to_exception()
        assert isinstance(exc, SoapFaultError)
        assert exc.faultcode == FAULT_SERVER
        assert exc.detail == "why"

    def test_from_generic_exception_is_server(self):
        fault = SoapFault.from_exception(ValueError("oops"))
        assert fault.faultcode == FAULT_SERVER
        assert "oops" in fault.faultstring

    def test_from_client_cause_is_client(self):
        fault = SoapFault.from_exception(ClientFaultCause("no such op"))
        assert fault.faultcode == FAULT_CLIENT

    def test_from_soap_fault_error_preserves_code(self):
        fault = SoapFault.from_exception(SoapFaultError("Custom", "msg", "d"))
        assert fault.faultcode == "Custom"
        assert fault.detail == "d"

    def test_from_element_wrong_tag_raises(self):
        with pytest.raises(SoapError):
            SoapFault.from_element(Element("{urn:x}NotFault"))

    def test_is_fault_body(self):
        env = Envelope()
        env.add_body(SoapFault(FAULT_SERVER, "x").to_element())
        body = Element(BODY_TAG)
        body.extend(env.body_entries)
        assert is_fault_body(body)
        assert not is_fault_body(Element(BODY_TAG))


def parse_fault(fault: SoapFault):
    """Round fault through a serialized envelope to exercise the wire form."""
    env = Envelope()
    env.add_body(fault.to_element())
    parsed = Envelope.parse(env.to_string(), server=True)
    return parsed.first_body_entry()


def test_envelope_tag_constant():
    assert ENVELOPE_TAG.endswith("Envelope")
