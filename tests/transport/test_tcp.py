"""Integration tests for the TCP transport (loopback sockets)."""

import threading
import time

import pytest

from repro.errors import TransportError
from repro.transport.base import ListenerClosed
from repro.transport.tcp import TcpTransport

LOOPBACK = ("127.0.0.1", 0)


@pytest.fixture
def transport():
    return TcpTransport()


class TestTcp:
    def test_ephemeral_port_assigned(self, transport):
        with transport.listen(LOOPBACK) as listener:
            host, port = listener.address
            assert host == "127.0.0.1"
            assert port > 0

    def test_round_trip(self, transport):
        with transport.listen(LOOPBACK) as listener:
            client = transport.connect(listener.address)
            server = listener.accept(timeout=2)
            client.sendall(b"hello tcp")
            assert server.recv() == b"hello tcp"
            server.sendall(b"reply")
            assert client.recv() == b"reply"
            client.close()
            server.close()

    def test_connect_refused(self, transport):
        with pytest.raises(TransportError, match="connect"):
            transport.connect(("127.0.0.1", 1))  # port 1: nothing listens

    def test_accept_timeout(self, transport):
        with transport.listen(LOOPBACK) as listener:
            with pytest.raises(TransportError, match="timed out"):
                listener.accept(timeout=0.05)

    def test_close_wakes_blocked_accept(self, transport):
        listener = transport.listen(LOOPBACK)
        outcome = []

        def accept():
            try:
                listener.accept()
            except TransportError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=accept, daemon=True)  # a miss fails, not hangs
        thread.start()
        time.sleep(0.05)  # let it block in accept()
        listener.close()
        thread.join(timeout=1)
        assert not thread.is_alive()
        assert isinstance(outcome[0], ListenerClosed)

    def test_eof_on_peer_close(self, transport):
        with transport.listen(LOOPBACK) as listener:
            client = transport.connect(listener.address)
            server = listener.accept(timeout=2)
            client.close()
            assert server.recv() == b""
            server.close()

    def test_large_transfer(self, transport):
        payload = b"x" * (2 * 1024 * 1024)
        received = bytearray()

        with transport.listen(LOOPBACK) as listener:

            def serve():
                server = listener.accept(timeout=2)
                while chunk := server.recv(65536):
                    received.extend(chunk)
                server.close()

            thread = threading.Thread(target=serve)
            thread.start()
            client = transport.connect(listener.address)
            client.sendall(payload)
            client.close()
            thread.join(timeout=5)

        assert bytes(received) == payload

    def test_concurrent_connections(self, transport):
        with transport.listen(LOOPBACK) as listener:
            address = listener.address
            results = []
            lock = threading.Lock()

            def serve(n):
                for _ in range(n):
                    channel = listener.accept(timeout=2)
                    data = channel.recv()
                    channel.sendall(data.upper())
                    channel.close()

            server_thread = threading.Thread(target=serve, args=(4,))
            server_thread.start()

            def client(i):
                channel = transport.connect(address)
                channel.sendall(f"msg{i}".encode())
                with lock:
                    results.append(channel.recv().decode())
                channel.close()

            threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
            server_thread.join(timeout=5)

        assert sorted(results) == ["MSG0", "MSG1", "MSG2", "MSG3"]


class TestIoTimeout:
    def test_recv_times_out_on_silent_peer(self):
        transport = TcpTransport(io_timeout=0.05)
        with transport.listen(LOOPBACK) as listener:
            client = transport.connect(listener.address)
            server = listener.accept(timeout=2)  # server never sends
            with pytest.raises(TransportError, match="recv failed"):
                client.recv()
            client.close()
            server.close()

    def test_accepted_channel_inherits_timeout(self):
        transport = TcpTransport(io_timeout=0.05)
        with transport.listen(LOOPBACK) as listener:
            client = transport.connect(listener.address)
            server = listener.accept(timeout=2)
            with pytest.raises(TransportError, match="recv failed"):
                server.recv()
            client.close()
            server.close()

    def test_normal_exchange_unaffected(self):
        transport = TcpTransport(io_timeout=5.0)
        with transport.listen(LOOPBACK) as listener:
            client = transport.connect(listener.address)
            server = listener.accept(timeout=2)
            client.sendall(b"quick")
            assert server.recv() == b"quick"
            client.close()
            server.close()

    def test_http_client_times_out_on_hung_server(self):
        from repro.errors import HttpError
        from repro.http.connection import HttpConnection
        from repro.http.message import HttpRequest

        transport = TcpTransport(io_timeout=0.05)
        with transport.listen(LOOPBACK) as listener:
            import threading

            def accept_and_hang():
                listener.accept(timeout=2)  # read nothing, reply nothing

            thread = threading.Thread(target=accept_and_hang, daemon=True)
            thread.start()
            connection = HttpConnection(transport, listener.address)
            with pytest.raises((TransportError, HttpError)):
                connection.request(HttpRequest("POST", "/", body=b"x"))
            connection.close()
            thread.join(timeout=5)
