"""Unit tests for the incremental HTTP parser."""

import pytest

from repro.errors import HttpError
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.parser import (
    ChannelReader,
    ConnectionClosedCleanly,
    encode_chunked,
    read_request,
    read_response,
)


class ScriptedChannel:
    """Feeds pre-scripted chunks to the reader, then EOF."""

    def __init__(self, *chunks: bytes):
        self._chunks = list(chunks)

    def recv(self, max_bytes: int = 65536) -> bytes:
        if not self._chunks:
            return b""
        return self._chunks.pop(0)

    def sendall(self, data: bytes) -> None:  # pragma: no cover
        raise AssertionError("not used")

    def close(self) -> None:  # pragma: no cover
        pass


def reader_for(*chunks: bytes) -> ChannelReader:
    return ChannelReader(ScriptedChannel(*chunks))


class TestReadRequest:
    def test_simple(self):
        raw = b"POST /svc HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello"
        req = read_request(reader_for(raw))
        assert req.method == "POST"
        assert req.path == "/svc"
        assert req.headers.get("Host") == "h"
        assert req.body == b"hello"

    def test_fragmented_arrival(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789"
        chunks = [raw[i : i + 7] for i in range(0, len(raw), 7)]
        req = read_request(reader_for(*chunks))
        assert req.body == b"0123456789"

    def test_no_body(self):
        req = read_request(reader_for(b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n"))
        assert req.body == b""
        assert req.method == "GET"

    def test_round_trip_with_model(self):
        original = HttpRequest("POST", "/soap", Headers({"SOAPAction": '"a"'}), b"<x/>")
        parsed = read_request(reader_for(original.to_bytes()))
        assert parsed.method == original.method
        assert parsed.path == original.path
        assert parsed.body == original.body
        assert parsed.headers.get("SOAPAction") == '"a"'

    def test_two_pipelined_requests(self):
        raw = (
            b"POST /a HTTP/1.1\r\nContent-Length: 1\r\n\r\nA"
            b"POST /b HTTP/1.1\r\nContent-Length: 1\r\n\r\nB"
        )
        reader = reader_for(raw)
        assert read_request(reader).body == b"A"
        assert read_request(reader).body == b"B"

    def test_clean_close_between_messages(self):
        with pytest.raises(ConnectionClosedCleanly):
            read_request(reader_for())

    def test_close_mid_head_raises(self):
        with pytest.raises(HttpError, match="mid-message"):
            read_request(reader_for(b"POST / HTTP/1.1\r\nHos"))

    def test_close_mid_body_raises(self):
        with pytest.raises(HttpError, match="mid-body"):
            read_request(reader_for(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"))

    @pytest.mark.parametrize(
        "head",
        [
            b"POST HTTP/1.1\r\n\r\n",  # missing path
            b"POST / HTTP/2.0\r\n\r\n",  # unsupported version
            b"POST / HTTP/1.1\r\nBad Header\r\n\r\n",  # no colon
            b"POST / HTTP/1.1\r\n Leading: x\r\n\r\n",  # space before name
            b"POST / HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        ],
    )
    def test_malformed_raises(self, head):
        with pytest.raises(HttpError):
            read_request(reader_for(head))

    def test_body_without_length_raises_411(self):
        raw = b"POST / HTTP/1.1\r\nContent-Type: text/xml\r\n\r\n"
        with pytest.raises(HttpError) as excinfo:
            read_request(reader_for(raw))
        assert excinfo.value.status == 411

    def test_oversized_head_raises_413(self):
        huge = b"POST / HTTP/1.1\r\nX: " + b"a" * 100_000
        with pytest.raises(HttpError) as excinfo:
            read_request(reader_for(huge, b"b" * 100_000))
        assert excinfo.value.status == 413


class TestReadResponse:
    def test_simple(self):
        raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
        resp = read_response(reader_for(raw))
        assert resp.status == 200
        assert resp.reason == "OK"
        assert resp.body == b"ok"

    def test_reason_with_spaces(self):
        raw = b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n"
        assert read_response(reader_for(raw)).reason == "Internal Server Error"

    def test_missing_reason_tolerated(self):
        raw = b"HTTP/1.1 204\r\n\r\n"
        resp = read_response(reader_for(raw))
        assert resp.status == 204

    def test_round_trip_with_model(self):
        original = HttpResponse(500, Headers({"Content-Type": "text/xml"}), b"<f/>")
        parsed = read_response(reader_for(original.to_bytes()))
        assert parsed.status == 500
        assert parsed.body == b"<f/>"

    def test_non_numeric_status_raises(self):
        with pytest.raises(HttpError):
            read_response(reader_for(b"HTTP/1.1 abc OK\r\n\r\n"))

    def test_no_content_length_means_empty_body(self):
        resp = read_response(reader_for(b"HTTP/1.1 204 No Content\r\n\r\n"))
        assert resp.body == b""


class TestChunked:
    def test_encode_decode(self):
        body = b"The quick brown fox jumps over the lazy dog" * 100
        encoded = encode_chunked(body, chunk_size=100)
        raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + encoded
        assert read_response(reader_for(raw)).body == body

    def test_empty_body(self):
        raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + encode_chunked(b"")
        assert read_response(reader_for(raw)).body == b""

    def test_chunk_extension_ignored(self):
        raw = (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5;ext=1\r\nhello\r\n0\r\n\r\n"
        )
        assert read_response(reader_for(raw)).body == b"hello"

    def test_request_chunked(self):
        raw = (
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            + encode_chunked(b"abc", chunk_size=2)
        )
        assert read_request(reader_for(raw)).body == b"abc"

    def test_bad_chunk_size_raises(self):
        raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"
        with pytest.raises(HttpError, match="chunk size"):
            read_response(reader_for(raw))

    def test_missing_chunk_terminator_raises(self):
        raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcXX0\r\n\r\n"
        with pytest.raises(HttpError, match="CRLF"):
            read_response(reader_for(raw))

    def test_unsupported_encoding_raises(self):
        raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n"
        with pytest.raises(HttpError, match="unsupported transfer"):
            read_response(reader_for(raw))

    def test_negative_chunk_size_raises(self):
        raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-2\r\nab\r\n0\r\n\r\n"
        with pytest.raises(HttpError, match="chunk size"):
            read_response(reader_for(raw))

    def test_oversized_chunk_size_line_is_400_not_a_head(self):
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" + b"f" * 1100
        with pytest.raises(HttpError, match="chunk size line too long") as excinfo:
            read_request(reader_for(raw))
        assert excinfo.value.status == 400

    def test_oversized_trailer_is_413(self):
        raw = (
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\nX-T: "
            + b"x" * 70_000
        )
        with pytest.raises(HttpError, match="trailer section too long") as excinfo:
            read_request(reader_for(raw))
        assert excinfo.value.status == 413

    def test_close_mid_chunk_raises(self):
        raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel"
        with pytest.raises(HttpError, match="mid-body"):
            read_response(reader_for(raw))
