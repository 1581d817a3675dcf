"""The HTTP engine's parser and connection state, then the event loop.

The connection tests drive :class:`ConnectionState` with bytes and
hand-rolled ``now`` values — no socket, no threads, no clocks — which is
the point of the state being pure with respect to I/O and time.  A
handful of real-socket tests then cover the loop itself.
"""

import socket

import pytest

from repro.errors import HttpError
from repro.http.core import MAX_PIPELINED, ConnectionState
from repro.http.evented import EventedHttpServer
from repro.http.message import Headers, HttpResponse
from repro.http.parser import MAX_HEAD_BYTES, RequestParser
from repro.transport.tcp import TcpTransport

SIMPLE = b"POST /svc HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello"


class TestRequestParser:
    def test_byte_by_byte_feed(self):
        parser = RequestParser()
        for byte in SIMPLE[:-1]:
            parser.feed(bytes([byte]))
            assert parser.next_request() is None
        parser.feed(SIMPLE[-1:])
        request = parser.next_request()
        assert request is not None
        assert (request.method, request.path) == ("POST", "/svc")
        assert request.body == b"hello"
        assert not parser.has_buffered_data

    def test_pipelined_requests_in_one_feed(self):
        parser = RequestParser()
        parser.feed(SIMPLE + SIMPLE)
        first = parser.next_request()
        second = parser.next_request()
        assert first.body == second.body == b"hello"
        assert parser.next_request() is None

    def test_chunked_body_with_trailer(self):
        parser = RequestParser()
        parser.feed(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: v\r\n\r\n"
        )
        request = parser.next_request()
        assert request.body == b"hello world"

    def test_chunked_split_mid_chunk(self):
        parser = RequestParser()
        parser.feed(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel")
        assert parser.next_request() is None
        assert parser.has_buffered_data
        parser.feed(b"lo\r\n0\r\n\r\n")
        assert parser.next_request().body == b"hello"

    def test_bad_content_length_is_400(self):
        parser = RequestParser()
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        with pytest.raises(HttpError) as err:
            parser.next_request()
        assert err.value.status == 400

    def test_body_without_length_is_411(self):
        parser = RequestParser()
        parser.feed(b"POST / HTTP/1.1\r\nContent-Type: text/xml\r\n\r\n")
        with pytest.raises(HttpError) as err:
            parser.next_request()
        assert err.value.status == 411

    def test_oversized_head_is_413(self):
        parser = RequestParser()
        parser.feed(b"POST / HTTP/1.1\r\nX-Pad: " + b"x" * MAX_HEAD_BYTES)
        with pytest.raises(HttpError) as err:
            parser.next_request()
        assert err.value.status == 413

    def test_get_without_body_completes_at_head(self):
        parser = RequestParser()
        parser.feed(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        request = parser.next_request()
        assert request.method == "GET"
        assert request.body == b""


def queue_response(conn, payload, *, now, close_after=False):
    """What a driver does when a worker finishes: fill + pump."""
    conn.open_slot(now).fill(payload, close_after=close_after)
    return conn.pump_ready(now)


class TestEventedConnection:
    def test_reads_complete_request(self):
        conn = ConnectionState(now=0.0)
        started, requests, error = conn.receive(SIMPLE, now=1.0)
        assert [r.body for r in requests] == [b"hello"]
        assert (started, error) == (1.0, None)
        assert conn.parse_started is None  # nothing half-parsed remains

    def test_pipelined_burst_returns_all_requests(self):
        conn = ConnectionState(now=0.0)
        assert len(conn.receive(SIMPLE + SIMPLE + SIMPLE, now=0.0)[1]) == 3

    def test_request_started_is_when_its_first_bytes_arrived(self):
        conn = ConnectionState(now=0.0)
        assert conn.receive(SIMPLE[:10], now=1.0)[1] == []
        started, requests, _error = conn.receive(SIMPLE[10:], now=3.0)
        assert started == 1.0
        assert len(requests) == 1

    def test_partial_write_resumes_where_it_stopped(self):
        conn = ConnectionState(now=0.0, write_timeout=30.0)
        assert queue_response(conn, b"ABCDEFGH", now=1.0)
        conn.wrote(4, now=1.0)  # kernel took 4, then blocked
        assert bytes(conn.outbuf) == b"EFGH"
        assert conn.write_started == 1.0
        conn.wrote(4, now=2.0)
        assert not conn.want_write()
        assert conn.write_started is None

    def test_stalled_peer_blows_write_deadline(self):
        conn = ConnectionState(now=0.0, write_timeout=5.0)
        queue_response(conn, b"stuck", now=10.0)
        assert conn.timed_out(now=14.9) is None
        assert conn.timed_out(now=15.1) == "write"

    def test_write_deadline_measures_stall_not_total_transfer(self):
        # A slow-but-progressing reader must NOT be killed: every byte
        # of progress re-arms the write deadline, so only a genuine
        # stall (no progress for write_timeout) blows it.
        conn = ConnectionState(now=0.0, write_timeout=5.0)
        queue_response(conn, b"ABCD", now=0.0)
        for tick in (0.0, 4.0, 8.0):  # total elapsed far exceeds 5s
            assert conn.timed_out(now=tick) is None
            conn.wrote(1, now=tick)
        assert conn.write_started == 8.0  # anchored at last progress
        assert conn.timed_out(now=12.9) is None
        assert conn.timed_out(now=13.1) == "write"

    def test_unfilled_slot_blows_handler_deadline(self):
        # A dispatched request whose slot is never filled (dropped
        # completion, wedged worker) must not wedge the connection
        # forever: the handler deadline reclaims it.
        conn = ConnectionState(now=0.0, handler_timeout=10.0)
        slot = conn.open_slot(now=2.0)
        assert conn.timed_out(now=11.9) is None
        assert conn.timed_out(now=12.1) == "handler"
        slot.fill(b"late", close_after=False)  # answered: deadline off
        assert conn.timed_out(now=12.1) is None

    def test_framing_error_carries_parsed_valid_prefix(self):
        # Pipelined batch where request 2 is malformed: request 1 comes
        # back beside the error so the driver answers it first.
        bad = b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
        conn = ConnectionState(now=0.0)
        _started, requests, error = conn.receive(SIMPLE + bad, now=0.0)
        assert [r.body for r in requests] == [b"hello"]
        assert error.status == 400
        assert conn.reading_shut

    def test_slow_loris_idle_anchor_is_parse_start(self):
        # Trickling one header fragment per second must NOT keep the
        # connection alive: the idle anchor is when the request started
        # arriving, not the last trickled byte.
        conn = ConnectionState(now=0.0, idle_timeout=10.0)
        assert conn.receive(b"POST / HT", now=0.0)[1] == []
        assert conn.parse_started == 0.0
        for second in range(1, 9):
            # more header bytes, never finishing
            conn.receive(b"x", now=float(second))
        assert conn.last_activity == 8.0
        assert conn.parse_started == 0.0  # anchor did not move
        assert conn.idle_remaining(now=9.0) == 1.0
        assert conn.timed_out(now=9.9) is None
        assert conn.timed_out(now=10.1) == "idle"

    def test_idle_between_requests_anchors_at_last_activity(self):
        conn = ConnectionState(now=0.0, idle_timeout=10.0)
        conn.receive(SIMPLE, now=5.0)
        assert conn.timed_out(now=14.9) is None
        assert conn.timed_out(now=15.1) == "idle"

    def test_no_idle_timeout_while_response_pending(self):
        conn = ConnectionState(now=0.0, idle_timeout=1.0)
        conn.receive(SIMPLE, now=0.0)
        conn.open_slot(now=0.0)  # dispatched, worker still running
        assert conn.timed_out(now=100.0) is None

    def test_out_of_order_fills_write_in_request_order(self):
        conn = ConnectionState(now=0.0)
        first, second = conn.open_slot(now=0.0), conn.open_slot(now=0.0)
        second.fill(b"SECOND", close_after=False)
        assert conn.pump_ready(now=0.0) is False  # head of line not done
        first.fill(b"FIRST", close_after=False)
        assert conn.pump_ready(now=0.0) is True
        assert bytes(conn.outbuf) == b"FIRSTSECOND"

    def test_close_after_slot_shuts_reading(self):
        conn = ConnectionState(now=0.0)
        queue_response(conn, b"bye", now=0.0, close_after=True)
        assert conn.close_after_write
        assert conn.reading_shut

    def test_clean_eof_finishes_connection(self):
        conn = ConnectionState(now=0.0)
        assert conn.receive(b"", now=0.0)[1:] == ([], None)
        assert not conn.close_after_write
        assert conn.finished

    def test_eof_mid_message_marks_drop(self):
        conn = ConnectionState(now=0.0)
        conn.receive(b"POST / HTTP/1.1\r\nContent-L", now=0.0)
        assert conn.receive(b"", now=0.0)[1:] == ([], None)  # nothing to answer
        assert conn.close_after_write

    def test_framing_error_is_returned_and_shuts_reading(self):
        conn = ConnectionState(now=0.0)
        _started, requests, error = conn.receive(b"NOT HTTP\r\n\r\n", now=0.0)
        assert requests == []
        assert isinstance(error, HttpError)
        assert conn.reading_shut
        assert not conn.want_read()

    def test_pipelining_cap_drops_read_interest(self):
        conn = ConnectionState(now=0.0)
        assert conn.want_read()
        for _ in range(MAX_PIPELINED):
            conn.open_slot(now=0.0)
        assert not conn.want_read()


def echo_app(request):
    return HttpResponse(
        200, Headers({"Content-Type": "text/plain"}), request.body
    )


def recv_response(sock, buffer=None):
    """Read one Content-Length-framed response off a blocking socket.

    Pass the same ``buffer`` for every read on a connection — pipelined
    responses arrive back to back, so bytes past the current response
    must survive into the next call.
    """
    if buffer is None:
        buffer = bytearray()
    while b"\r\n\r\n" not in buffer:
        buffer += sock.recv(65536)
    head_end = buffer.find(b"\r\n\r\n") + 4
    head = bytes(buffer[: head_end - 4])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(buffer) < head_end + length:
        buffer += sock.recv(65536)
    body = bytes(buffer[head_end : head_end + length])
    del buffer[: head_end + length]
    return head, body


class TestEventedHttpServer:
    def test_keep_alive_and_pipelining_over_real_sockets(self):
        server = EventedHttpServer(
            echo_app, transport=TcpTransport(), address=("127.0.0.1", 0)
        )
        with server.running() as (host, port):
            with socket.create_connection((host, port), timeout=5) as sock:
                # two requests in one write: pipelined, answered in order
                buffer = bytearray()
                sock.sendall(SIMPLE + SIMPLE)
                head1, body1 = recv_response(sock, buffer)
                head2, body2 = recv_response(sock, buffer)
                assert body1 == body2 == b"hello"
                assert b"keep-alive" in head1
                # the same connection serves a third request afterwards
                sock.sendall(SIMPLE)
                _, body3 = recv_response(sock, buffer)
                assert body3 == b"hello"
        assert server.connections_accepted == 1
        assert server.requests_served == 3

    def test_accept_overload_sheds_with_canned_503(self):
        server = EventedHttpServer(
            echo_app,
            transport=TcpTransport(),
            address=("127.0.0.1", 0),
            max_connections=1,
        )
        with server.running() as (host, port):
            with socket.create_connection((host, port), timeout=5) as first:
                first.sendall(SIMPLE)
                recv_response(first)  # the budgeted connection works
                with socket.create_connection((host, port), timeout=5) as second:
                    head, _body = recv_response(second)  # shed before parse
                    assert head.startswith(b"HTTP/1.1 503")
        assert server.accept_overload_shed == 1

    def test_idle_connection_is_closed_by_the_loop(self):
        server = EventedHttpServer(
            echo_app,
            transport=TcpTransport(),
            address=("127.0.0.1", 0),
            idle_timeout=0.3,
        )
        with server.running() as (host, port):
            with socket.create_connection((host, port), timeout=5) as sock:
                assert sock.recv(65536) == b""  # loop closes us, no request

    def test_pipelined_valid_then_malformed_answers_valid_first(self):
        # One write carrying a valid request then a malformed one: the
        # valid request is answered 200 before the 400, matching the
        # threaded backend (the error must not be misattributed).
        server = EventedHttpServer(
            echo_app, transport=TcpTransport(), address=("127.0.0.1", 0)
        )
        with server.running() as (host, port):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(
                    SIMPLE + b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
                )
                buffer = bytearray()
                head1, body1 = recv_response(sock, buffer)
                assert head1.startswith(b"HTTP/1.1 200")
                assert body1 == b"hello"
                head2, _body = recv_response(sock, buffer)
                assert head2.startswith(b"HTTP/1.1 400")
                assert b"Connection: close" in head2
                assert sock.recv(65536) == b""
        assert server.requests_served == 1

    def test_pipelined_admin_then_malformed_answers_admin_first(self):
        # Same batch shape, but the valid request is answered
        # synchronously on the loop (admin path, obs enabled): the
        # connection must stay open until the error slot is queued —
        # flushing the admin response must not read as `finished`.
        from repro.obs.trace import Observability

        server = EventedHttpServer(
            echo_app,
            transport=TcpTransport(),
            address=("127.0.0.1", 0),
            observability=Observability(),
        )
        with server.running() as (host, port):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                    b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
                )
                buffer = bytearray()
                head1, _body = recv_response(sock, buffer)
                assert head1.startswith(b"HTTP/1.1 200")
                head2, _body = recv_response(sock, buffer)
                assert head2.startswith(b"HTTP/1.1 400")
                assert sock.recv(65536) == b""

    def test_malformed_request_answers_error_then_closes(self):
        server = EventedHttpServer(
            echo_app, transport=TcpTransport(), address=("127.0.0.1", 0)
        )
        with server.running() as (host, port):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
                head, _body = recv_response(sock)
                assert head.startswith(b"HTTP/1.1 400")
                assert b"Connection: close" in head
                assert sock.recv(65536) == b""
