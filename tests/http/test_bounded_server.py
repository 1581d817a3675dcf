"""Tests for the bounded protocol stage (max_connections)."""

import threading
import time

import pytest

from repro.http.connection import HttpConnection
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.server import HttpServer
from repro.transport.inproc import InProcTransport

from ..metrics import counters, gauges


def echo_app(request):
    return HttpResponse(200, Headers({"Content-Type": "text/plain"}), request.body)


@pytest.fixture
def bounded():
    transport = InProcTransport()
    server = HttpServer(
        echo_app, transport=transport, address="bounded", max_connections=1
    )
    with server.running() as address:
        yield transport, address, server


class TestBoundedConnections:
    def test_single_connection_serves_normally(self, bounded):
        transport, address, _ = bounded
        with HttpConnection(transport, address) as conn:
            assert conn.request(HttpRequest("POST", "/", body=b"a")).body == b"a"

    def test_second_connection_waits_for_slot(self, bounded):
        transport, address, server = bounded
        first = HttpConnection(transport, address)
        assert first.request(HttpRequest("POST", "/", body=b"1")).ok

        second_done = threading.Event()
        result = {}

        def second_client():
            with HttpConnection(transport, address) as conn:
                result["body"] = conn.request(HttpRequest("POST", "/", body=b"2")).body
            second_done.set()

        thread = threading.Thread(target=second_client, daemon=True)
        thread.start()
        # the slot is held by the keep-alive first connection
        assert not second_done.wait(timeout=0.15)
        first.close()
        assert second_done.wait(timeout=5)
        assert result["body"] == b"2"
        thread.join(timeout=5)
        assert gauges(server)["http.connections.max_active"] == 1

    def test_slots_recycled_across_many_serial_clients(self, bounded):
        transport, address, server = bounded
        for i in range(5):
            with HttpConnection(transport, address) as conn:
                request = HttpRequest(
                    "POST", "/", Headers({"Connection": "close"}), str(i).encode()
                )
                assert conn.request(request).body == str(i).encode()
        assert counters(server)["http.connections.accepted"] == 5
        assert gauges(server)["http.connections.max_active"] == 1

    def test_unbounded_server_tracks_concurrency(self):
        transport = InProcTransport()
        server = HttpServer(echo_app, transport=transport, address="unbounded")
        with server.running() as address:
            barrier = threading.Barrier(3, timeout=5)

            def client():
                with HttpConnection(transport, address) as conn:
                    conn.request(HttpRequest("POST", "/", body=b"x"))
                    barrier.wait()

            threads = [threading.Thread(target=client) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
        assert gauges(server)["http.connections.max_active"] == 3

    def test_stop_with_held_slot_does_not_hang(self):
        transport = InProcTransport()
        server = HttpServer(
            echo_app, transport=transport, address="stoppable", max_connections=1
        )
        address = server.start()
        conn = HttpConnection(transport, address)
        conn.request(HttpRequest("POST", "/", body=b"x"))
        start = time.monotonic()
        server.stop(join_timeout=2)
        assert time.monotonic() - start < 10
        conn.close()
