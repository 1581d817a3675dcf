"""Integration tests: HTTP client/pool against the threaded server."""

import threading
import time

import pytest

from repro.errors import HttpError
from repro.http.connection import ConnectionPool, HttpConnection
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.server import HttpServer
from repro.transport.inproc import InProcTransport
from repro.transport.tcp import TcpTransport

from ..metrics import counters


def echo_app(request: HttpRequest) -> HttpResponse:
    return HttpResponse(
        200,
        Headers({"Content-Type": "application/octet-stream", "X-Path": request.path}),
        request.body,
    )


@pytest.fixture(params=["inproc", "tcp"])
def server_address(request):
    if request.param == "inproc":
        transport = InProcTransport()
        address = "httpd"
    else:
        transport = TcpTransport()
        address = ("127.0.0.1", 0)
    server = HttpServer(echo_app, transport=transport, address=address)
    with server.running() as bound:
        yield transport, bound, server


class TestBasicExchanges:
    def test_round_trip(self, server_address):
        transport, address, _ = server_address
        with HttpConnection(transport, address) as conn:
            resp = conn.request(HttpRequest("POST", "/svc", body=b"payload"))
        assert resp.status == 200
        assert resp.body == b"payload"
        assert resp.headers.get("X-Path") == "/svc"

    def test_keep_alive_reuses_connection(self, server_address):
        transport, address, server = server_address
        with HttpConnection(transport, address) as conn:
            for i in range(5):
                resp = conn.request(HttpRequest("POST", f"/r{i}", body=b"x"))
                assert resp.ok
            assert conn.exchanges == 5
        assert counters(server)["http.connections.accepted"] == 1
        assert counters(server)["http.requests"] == 5

    def test_connection_close_honoured(self, server_address):
        transport, address, _ = server_address
        conn = HttpConnection(transport, address)
        resp = conn.request(
            HttpRequest("POST", "/", Headers({"Connection": "close"}), b"x")
        )
        assert resp.ok
        assert conn.closed
        with pytest.raises(HttpError):
            conn.request(HttpRequest())

    def test_large_body(self, server_address):
        transport, address, _ = server_address
        payload = b"z" * (1024 * 1024)
        with HttpConnection(transport, address) as conn:
            resp = conn.request(HttpRequest("POST", "/", body=payload))
        assert resp.body == payload

    def test_concurrent_clients(self, server_address):
        transport, address, _ = server_address
        results = {}
        lock = threading.Lock()

        def worker(i):
            with HttpConnection(transport, address) as conn:
                resp = conn.request(HttpRequest("POST", "/", body=f"m{i}".encode()))
            with lock:
                results[i] = resp.body

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert results == {i: f"m{i}".encode() for i in range(8)}


class TestServerRobustness:
    def test_malformed_request_gets_error_response(self, server_address):
        transport, address, _ = server_address
        channel = transport.connect(address)
        channel.sendall(b"NONSENSE\r\n\r\n")
        data = bytearray()
        while chunk := channel.recv():
            data.extend(chunk)
        assert data.startswith(b"HTTP/1.1 400")
        channel.close()

    def test_app_exception_becomes_500(self):
        def broken_app(request):
            raise RuntimeError("kaboom")

        transport = InProcTransport()
        server = HttpServer(broken_app, transport=transport, address="broken")
        with server.running() as address:
            with HttpConnection(transport, address) as conn:
                resp = conn.request(HttpRequest("POST", "/", body=b"x"))
        assert resp.status == 500
        assert b"kaboom" in resp.body

    def test_server_header_set(self, server_address):
        transport, address, _ = server_address
        with HttpConnection(transport, address) as conn:
            resp = conn.request(HttpRequest("POST", "/", body=b""))
        assert "repro-httpd" in (resp.headers.get("Server") or "")

    def test_stop_is_idempotent_and_restart_fails(self):
        transport = InProcTransport()
        server = HttpServer(echo_app, transport=transport, address="once")
        server.start()
        server.stop()
        server.stop()
        with pytest.raises(HttpError):
            server.start()

    def test_stop_on_tcp_wakes_the_accept_thread(self):
        # close() alone leaves a Linux thread asleep in accept(), and
        # stop() then waited out its whole five-second join.
        server = HttpServer(echo_app, transport=TcpTransport(), address=("127.0.0.1", 0))
        server.start()
        began = time.monotonic()
        server.stop()
        assert time.monotonic() - began < 1.0
        assert not server._accept_thread.is_alive()

    def test_address_property(self):
        transport = InProcTransport()
        server = HttpServer(echo_app, transport=transport, address="addr")
        with pytest.raises(HttpError):
            _ = server.address
        with server.running():
            assert server.address == "addr"


class TestConnectionPool:
    def test_pool_reuses_connections(self, server_address):
        transport, address, server = server_address
        pool = ConnectionPool(transport)
        for _ in range(6):
            resp = pool.request(address, HttpRequest("POST", "/", body=b"x"))
            assert resp.ok
        assert pool.connections_created == 1
        assert counters(server)["http.connections.accepted"] == 1
        pool.close()

    def test_pool_grows_under_concurrency(self, server_address):
        transport, address, _ = server_address
        pool = ConnectionPool(transport)
        barrier = threading.Barrier(4)

        def worker():
            conn = pool.acquire(address)
            barrier.wait(timeout=5)  # hold 4 connections simultaneously
            resp = conn.request(HttpRequest("POST", "/", body=b"y"))
            assert resp.ok
            pool.release(address, conn)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert pool.connections_created == 4
        pool.close()

    def test_release_closed_connection_dropped(self, server_address):
        transport, address, _ = server_address
        pool = ConnectionPool(transport)
        conn = pool.acquire(address)
        conn.close()
        pool.release(address, conn)
        fresh = pool.acquire(address)
        assert not fresh.closed
        assert pool.connections_created == 2
        pool.close()

    def test_max_idle_respected(self, server_address):
        transport, address, _ = server_address
        pool = ConnectionPool(transport, max_idle_per_address=1)
        a = pool.acquire(address)
        b = pool.acquire(address)
        pool.release(address, a)
        pool.release(address, b)  # beyond max idle: closed
        assert b.closed
        assert not a.closed
        pool.close()
        assert a.closed
