"""Tests for Axis-style multiRef resolution."""

import pytest

from repro.errors import SoapError
from repro.soap.deserializer import parse_rpc_request
from repro.soap.envelope import Envelope
from repro.soap.multiref import resolve_multirefs
from repro.xmlcore import parse
from repro.server import ServerConfig, build_server

AXIS_MULTIREF = """<?xml version="1.0" encoding="UTF-8"?>
<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">
 <soapenv:Body>
  <ns1:echo xmlns:ns1="urn:repro:echo">
   <payload href="#id0"/>
  </ns1:echo>
  <multiRef id="id0" xsi:type="xsd:string">shared value</multiRef>
 </soapenv:Body>
</soapenv:Envelope>"""


def entries_of(document: str):
    return Envelope.parse(document, server=True).body_entries


class TestDetection:
    """The resolver detects a multiRef graph itself: without an id or href
    it hands the entries back untouched."""

    def test_detects_href(self):
        entries = entries_of(AXIS_MULTIREF)
        resolved = resolve_multirefs(entries)
        assert len(resolved) == 1 and resolved[0] is not entries[0]
        assert resolved[0].element_children()[0].get("href") is None

    def test_plain_body_not_detected(self):
        doc = (
            '<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">'
            "<e:Body><op xmlns='urn:x'><a>1</a></op></e:Body></e:Envelope>"
        )
        entries = entries_of(doc)
        resolved = resolve_multirefs(entries)
        assert len(resolved) == 1 and resolved[0] is entries[0]


class TestResolution:
    def test_axis_message_inlined(self):
        resolved = resolve_multirefs(entries_of(AXIS_MULTIREF))
        assert len(resolved) == 1
        request = parse_rpc_request(resolved[0])
        assert request.operation == "echo"
        assert request.params == {"payload": "shared value"}

    def test_shared_target_referenced_twice(self):
        body = parse(
            '<b><op xmlns="urn:x"><a href="#v"/><b href="#v"/></op>'
            '<multiRef xmlns="" id="v" '
            'xsi:type="xsd:int" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">7</multiRef></b>'
        )
        resolved = resolve_multirefs(body.element_children())
        request = parse_rpc_request(resolved[0])
        assert request.params == {"a": 7, "b": 7}

    def test_chained_references(self):
        body = parse(
            '<b><op xmlns="urn:x"><a href="#one"/></op>'
            '<m1 xmlns="" id="one"><inner href="#two"/></m1>'
            '<m2 xmlns="" id="two">deep</m2></b>'
        )
        resolved = resolve_multirefs(body.element_children())
        assert resolved[0].find("a").find("inner").text == "deep"

    def test_no_multirefs_passthrough(self):
        body = parse('<b><op xmlns="urn:x"><a>1</a></op></b>')
        entries = body.element_children()
        assert resolve_multirefs(entries) == entries

    def test_id_attribute_stripped(self):
        resolved = resolve_multirefs(entries_of(AXIS_MULTIREF))
        for element in resolved[0].iter():
            assert element.get("id") is None
            assert element.get("href") is None

    def test_dangling_href_raises(self):
        body = parse('<b><op xmlns="urn:x"><a href="#nope"/></op></b>')
        with pytest.raises(SoapError, match="dangling"):
            resolve_multirefs(body.element_children())

    def test_remote_href_raises(self):
        body = parse('<b><op xmlns="urn:x"><a href="http://other#x"/></op></b>')
        with pytest.raises(SoapError, match="local"):
            resolve_multirefs(body.element_children())

    def test_duplicate_id_raises(self):
        body = parse(
            '<b><op xmlns="urn:x"/><m xmlns="" id="d"/><m xmlns="" id="d"/></b>'
        )
        with pytest.raises(SoapError, match="duplicate"):
            resolve_multirefs(body.element_children())

    def test_cycle_raises(self):
        body = parse(
            '<b><op xmlns="urn:x"><a href="#one"/></op>'
            '<m1 xmlns="" id="one"><x href="#two"/></m1>'
            '<m2 xmlns="" id="two"><y href="#one"/></m2></b>'
        )
        with pytest.raises(SoapError, match="cycle"):
            resolve_multirefs(body.element_children())

    def test_input_not_mutated(self):
        entries = entries_of(AXIS_MULTIREF)
        snapshot = [e.copy() for e in entries]
        resolve_multirefs(entries)
        for original, saved in zip(entries, snapshot):
            assert original.structurally_equal(saved)


class TestEndToEnd:
    def test_server_accepts_axis_multiref_message(self):
        from repro.apps.echo import make_echo_service
        from repro.http.connection import HttpConnection
        from repro.http.message import Headers, HttpRequest
        from repro.soap.constants import SOAP_CONTENT_TYPE
        from repro.soap.deserializer import parse_response_envelope
        from repro.transport.inproc import InProcTransport

        transport = InProcTransport()
        server = build_server(ServerConfig(services=[make_echo_service()], architecture="staged", transport=transport, address="multiref"))
        with server.running() as address:
            request = HttpRequest(
                "POST",
                "/services/EchoService",
                Headers({"Content-Type": SOAP_CONTENT_TYPE}),
                AXIS_MULTIREF.encode("utf-8"),
            )
            with HttpConnection(transport, address) as connection:
                response = connection.request(request)
        assert response.status == 200
        result = parse_response_envelope(Envelope.parse(response.body, server=True))
        assert result.value == "shared value"
