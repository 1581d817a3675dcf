"""Failure injection: the stack under broken peers and mid-flight death.

Covers the failure modes a production SOAP deployment actually sees:
connection refused, server stopped between exchanges, garbage on the
wire in both directions, truncated messages, and oversized heads.
"""

import threading

import pytest

from repro.apps.echo import ECHO_NS, make_echo_service
from repro.client.proxy import ServiceProxy
from repro.core.assembler import ClientAssembler
from repro.core.batch import PackBatch
from repro.core.dispatcher import spi_server_handlers
from repro.core.packformat import unpack_parallel_method
from repro.errors import HttpError, ReproError, SerializationError, TransportError
from repro.http.connection import HttpConnection
from repro.http.message import Headers, HttpRequest
from repro.server.handlers import HandlerChain
from repro.soap.constants import REQUEST_ID_ATTR, SOAP_CONTENT_TYPE
from repro.soap.deserializer import parse_rpc_response
from repro.soap.envelope import Envelope
from repro.transport.inproc import InProcTransport
from repro.server import ServerConfig, build_server, service_from_functions
from repro.client.config import ClientConfig, build_proxy


def make_server(transport, address):
    return build_server(ServerConfig(services=[make_echo_service()], architecture="staged", transport=transport, address=address, chain=HandlerChain(spi_server_handlers())))


class TestConnectionFailures:
    def test_connect_refused_surfaces_as_transport_error(self):
        transport = InProcTransport()
        proxy = build_proxy(ClientConfig(transport, "nobody-home", namespace=ECHO_NS))
        with pytest.raises(TransportError):
            proxy.call("echo", payload="x")

    def test_server_stopped_between_calls(self):
        transport = InProcTransport()
        server = make_server(transport, "short-lived")
        with server.running() as address:
            proxy = build_proxy(ClientConfig(transport, address, namespace=ECHO_NS))
            assert proxy.call("echo", payload="ok") == "ok"
        with pytest.raises(ReproError):
            proxy.call("echo", payload="too late")

    def test_batch_against_dead_server_fails_every_future(self):
        transport = InProcTransport()
        server = make_server(transport, "dead")
        with server.running() as address:
            proxy = build_proxy(ClientConfig(transport, address, namespace=ECHO_NS))
        batch = PackBatch(proxy)
        futures = [batch.call("echo", payload=str(i)) for i in range(3)]
        batch.flush()
        assert all(f.exception(timeout=1) is not None for f in futures)

    def test_client_disconnect_mid_request_does_not_kill_server(self):
        transport = InProcTransport()
        server = make_server(transport, "resilient")
        with server.running() as address:
            # half a request, then hang up
            channel = transport.connect(address)
            channel.sendall(b"POST /svc HTTP/1.1\r\nContent-Length: 999\r\n\r\npartial")
            channel.close()
            # server must still serve the next client
            proxy = build_proxy(ClientConfig(transport, address, namespace=ECHO_NS))
            assert proxy.call("echo", payload="alive") == "alive"


class TestWireGarbage:
    @pytest.fixture
    def env(self):
        transport = InProcTransport()
        server = make_server(transport, "garbage")
        with server.running() as address:
            yield transport, address

    def raw_exchange(self, transport, address, payload: bytes) -> bytes:
        channel = transport.connect(address)
        channel.sendall(payload)
        data = bytearray()
        while chunk := channel.recv():
            data.extend(chunk)
        channel.close()
        return bytes(data)

    def test_non_http_bytes_get_400(self, env):
        transport, address = env
        response = self.raw_exchange(transport, address, b"\x00\x01\x02 nonsense\r\n\r\n")
        assert b"400" in response.split(b"\r\n")[0]

    def test_http_but_not_xml_gets_soap_fault(self, env):
        transport, address = env
        body = b"this is not xml at all"
        request = (
            f"POST /svc HTTP/1.1\r\nContent-Type: {SOAP_CONTENT_TYPE}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode() + body
        response = self.raw_exchange(transport, address, request)
        assert b"400" in response.split(b"\r\n")[0]
        assert b"Fault" in response

    def test_xml_but_not_soap_gets_fault(self, env):
        transport, address = env
        body = b"<notsoap/>"
        request = (
            f"POST /svc HTTP/1.1\r\nContent-Type: {SOAP_CONTENT_TYPE}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode() + body
        response = self.raw_exchange(transport, address, request)
        assert b"Fault" in response

    def test_oversized_header_rejected(self, env):
        transport, address = env
        request = b"POST / HTTP/1.1\r\nX-Huge: " + b"a" * 200_000 + b"\r\n\r\n"
        response = self.raw_exchange(transport, address, request)
        assert b"413" in response.split(b"\r\n")[0]

    def test_server_recovers_after_each_garbage_client(self, env):
        transport, address = env
        for payload in (b"junk\r\n\r\n", b"GET\r\n\r\n", b"POST / HTTP/9.9\r\n\r\n"):
            self.raw_exchange(transport, address, payload)
        proxy = build_proxy(ClientConfig(transport, address, namespace=ECHO_NS))
        assert proxy.call("echo", payload="fine") == "fine"


class TestBrokenResponses:
    """Client behaviour when the *server* replies with garbage."""

    def serve_once(self, transport, address, response_bytes: bytes):
        listener = transport.listen(address)

        def run():
            channel = listener.accept(timeout=5)
            # drain the request head
            channel.recv()
            channel.sendall(response_bytes)
            channel.close()
            listener.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread

    def test_truncated_response_raises(self):
        transport = InProcTransport()
        thread = self.serve_once(
            transport, "liar", b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort"
        )
        connection = HttpConnection(transport, "liar")
        with pytest.raises(HttpError, match="mid-body"):
            connection.request(HttpRequest("POST", "/", body=b"x"))
        thread.join(timeout=5)

    def test_non_http_response_raises(self):
        transport = InProcTransport()
        thread = self.serve_once(transport, "noise", b"garbage not http\r\n\r\n")
        connection = HttpConnection(transport, "noise")
        with pytest.raises(HttpError):
            connection.request(HttpRequest("POST", "/", body=b"x"))
        thread.join(timeout=5)

    def test_http_ok_but_broken_soap_fails_batch_futures(self):
        transport = InProcTransport()
        body = b"<bad"
        response = (
            f"HTTP/1.1 200 OK\r\nContent-Type: {SOAP_CONTENT_TYPE}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode() + body
        thread = self.serve_once(transport, "brokensoap", response)
        proxy = build_proxy(ClientConfig(transport, "brokensoap", namespace=ECHO_NS))
        batch = PackBatch(proxy)
        future = batch.call("echo", payload="x")
        batch.flush()
        assert future.exception(timeout=5) is not None
        thread.join(timeout=5)


class TestUnencodableResultInAPack:
    """An operation whose result cannot be encoded faults its own slot."""

    NS = "urn:test:members"

    def make_server(self, transport, architecture):
        service = service_from_functions(
            "Members",
            self.NS,
            {"bad": lambda: {"a b": 1}, "good": lambda: "fine"},
        )
        return build_server(ServerConfig(services=[service], architecture=architecture, transport=transport, address="members", chain=HandlerChain(spi_server_handlers())))

    @pytest.mark.parametrize("architecture", ["staged", "common"])
    def test_bad_struct_key_faults_one_slot_and_the_sibling_answers(self, architecture):
        transport = InProcTransport()
        with self.make_server(transport, architecture).running() as address:
            assembler = ClientAssembler(self.NS)
            assembler.add_call("bad", {})
            assembler.add_call("good", {})
            connection = HttpConnection(transport, address)
            response = connection.request(
                HttpRequest(
                    "POST",
                    "/services/Members",
                    Headers({"Content-Type": SOAP_CONTENT_TYPE, "SOAPAction": '""'}),
                    assembler.assemble().to_bytes(),
                )
            )
            connection.close()
        assert response.status == 200
        slots = unpack_parallel_method(Envelope.parse(response.body).first_body_entry())
        assert [slot.local_name for slot in slots] == ["Fault", "goodResponse"]
        assert [slot.get(REQUEST_ID_ATTR) for slot in slots] == ["r0", "r1"]
        assert "'a b' is not an XML name" in slots[0].findtext("faultstring")
        assert parse_rpc_response(slots[1]).value == "fine"

    def test_client_fails_when_the_call_is_added_not_when_the_pack_is_written(self):
        assembler = ClientAssembler(self.NS)
        assembler.add_call("good", {})
        with pytest.raises(SerializationError, match="not an XML name"):
            assembler.add_call("good", {"record": {"a b": 1}})
        assert len(assembler) == 1
        assembler.assemble().to_bytes()  # the pack is still writable
