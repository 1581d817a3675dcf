"""Golden wire-format tests: exact serialized message shapes.

These lock the on-the-wire representation (prefixes, attribute order,
declaration) so that refactors of the writer/serializer cannot silently
change interop-relevant bytes.
"""

from repro.apps.echo import ECHO_NS, ECHO_SERVICE, make_echo_service
from repro.client.config import ClientConfig, build_proxy
from repro.core.packformat import build_parallel_method
from repro.server import ServerConfig, build_server
from repro.soap.envelope import Envelope
from repro.soap.fault import SoapFault
from repro.soap.serializer import (
    build_fault_envelope,
    build_request_envelope,
    serialize_rpc_request,
)
from repro.transport.base import Channel, Transport
from repro.transport.inproc import InProcTransport

XML_DECL = '<?xml version="1.0" encoding="UTF-8"?>'


class TestGoldenMessages:
    def test_simple_request_envelope(self):
        envelope = build_request_envelope("urn:svc", "echo", {"payload": "hi"})
        assert envelope.to_string() == (
            XML_DECL
            + '<SOAP-ENV:Envelope'
            + ' xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/"'
            + ' xmlns:xsd="http://www.w3.org/2001/XMLSchema"'
            + ' xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
            + "<SOAP-ENV:Body>"
            + '<ns0:echo xmlns:ns0="urn:svc">'
            + '<payload xsi:type="xsd:string">hi</payload>'
            + "</ns0:echo>"
            + "</SOAP-ENV:Body>"
            + "</SOAP-ENV:Envelope>"
        )

    def test_typed_parameters(self):
        entry = serialize_rpc_request(
            "urn:svc", "op", {"n": 7, "f": 1.5, "b": True, "none": None}
        )
        envelope = Envelope()
        envelope.add_body(entry)
        text = envelope.to_string()
        assert '<n xsi:type="xsd:int">7</n>' in text
        assert '<f xsi:type="xsd:double">1.5</f>' in text
        assert '<b xsi:type="xsd:boolean">true</b>' in text
        assert '<none xsi:nil="true"/>' in text

    def test_fault_envelope(self):
        envelope = build_fault_envelope(SoapFault("Server", "boom"))
        text = envelope.to_string()
        assert "<SOAP-ENV:Fault>" in text
        assert "<faultcode>SOAP-ENV:Server</faultcode>" in text
        assert "<faultstring>boom</faultstring>" in text

    def test_parallel_method_message_matches_figure4_shape(self):
        """The structure of Figure 4: Body > Parallel_Method > M requests,
        each with its requestID."""
        entries = [
            serialize_rpc_request("urn:w", "GetWeather", {"city": "Beijing", "country": "China"}),
            serialize_rpc_request("urn:w", "GetWeather", {"city": "Shanghai", "country": "China"}),
        ]
        envelope = Envelope()
        envelope.add_body(build_parallel_method(entries))
        text = envelope.to_string()
        # The wrapper hoists each method namespace (m0, m1, ...) so the
        # packed entries carry no per-entry xmlns declarations.
        assert (
            '<spi:Parallel_Method xmlns:spi="urn:spi:soap-passing-interface"'
            ' xmlns:m0="urn:w">'
        ) in text
        assert text.count("GetWeather") == 4  # 2 open + 2 close tags
        assert '<m0:GetWeather requestID="r0">' in text
        assert '<m0:GetWeather requestID="r1">' in text
        assert text.count('xmlns:m0="urn:w"') == 1
        # Parallel_Method is the only direct Body child
        body_inner = text.split("<SOAP-ENV:Body>")[1].split("</SOAP-ENV:Body>")[0]
        assert body_inner.startswith("<spi:Parallel_Method")
        assert body_inner.endswith("</spi:Parallel_Method>")

    def test_envelope_bytes_are_utf8_without_bom(self):
        envelope = build_request_envelope("urn:svc", "echo", {"payload": "北京"})
        data = envelope.to_bytes()
        assert not data.startswith(b"\xef\xbb\xbf")
        assert "北京".encode("utf-8") in data

    def test_serialization_is_stable_across_calls(self):
        envelope = build_request_envelope("urn:svc", "op", {"a": "1", "b": "2"})
        assert envelope.to_string() == envelope.to_string()


class _RecordingChannel(Channel):
    """Client channel that keeps every byte the proxy sends."""

    def __init__(self, inner, sent):
        self._inner = inner
        self._sent = sent

    def sendall(self, data):
        self._sent.append(bytes(data))
        self._inner.sendall(data)

    def recv(self, max_bytes=65536):
        return self._inner.recv(max_bytes)

    def set_timeout(self, timeout):
        self._inner.set_timeout(timeout)

    def close(self):
        self._inner.close()


class _RecordingTransport(Transport):
    def __init__(self, base):
        self.base = base
        self.sent = []

    def listen(self, address):
        return self.base.listen(address)

    def connect(self, address, timeout=None):
        return _RecordingChannel(self.base.connect(address, timeout), self.sent)


class TestHttpBinding:
    """The HTTP binding as :class:`ServiceProxy` puts it on the wire —
    the WS-I Basic Profile rule (quoted SOAPAction) checked where the
    header is produced."""

    def _request_head(self):
        recording = _RecordingTransport(InProcTransport())
        server = build_server(ServerConfig(
            services=[make_echo_service()],
            transport=recording.base,
            address="wire-format",
        ))
        with server.running() as address:
            proxy = build_proxy(ClientConfig(
                recording, address, namespace=ECHO_NS, service_name=ECHO_SERVICE
            ))
            assert proxy.call("echo", payload="x") == "x"
            proxy.close()
        head, _, _ = b"".join(recording.sent).partition(b"\r\n\r\n")
        return head.decode("ascii").split("\r\n")

    def test_request_headers(self):
        lines = self._request_head()
        assert lines[0].startswith("POST ")
        assert f'SOAPAction: "{ECHO_NS}#echo"' in lines
        assert "Content-Type: text/xml; charset=utf-8" in lines
