"""Unit tests for negotiated content-coding (PR-6)."""

import zlib

import pytest

from repro.errors import HttpError
from repro.http.compression import (
    CompressionError,
    CompressionPolicy,
    choose_encoding,
    compress,
    decompress,
)
from repro.http.message import Headers, HttpRequest, parse_qvalues
from repro.http.parser import ChannelReader, read_request, read_response
from repro.http.server import HttpServer


class TestParseQvalues:
    def test_plain_list(self):
        assert parse_qvalues("gzip, deflate") == [("gzip", 1.0), ("deflate", 1.0)]

    def test_explicit_q(self):
        assert parse_qvalues("gzip;q=0.5, deflate;q=0.8") == [
            ("gzip", 0.5),
            ("deflate", 0.8),
        ]

    def test_malformed_members_are_skipped(self):
        assert parse_qvalues("gzip;q=banana, , deflate;q=2, br;q=0.5") == [
            ("br", 0.5)
        ]

    def test_case_and_whitespace(self):
        assert parse_qvalues("  GZIP ; q=0.9 ") == [("gzip", 0.9)]

    def test_empty(self):
        assert parse_qvalues("") == []


class TestChooseEncoding:
    def test_no_header_means_identity(self):
        assert choose_encoding(None, CompressionPolicy()) is None

    def test_highest_q_wins(self):
        assert (
            choose_encoding("gzip;q=0.5, deflate;q=0.9", CompressionPolicy())
            == "deflate"
        )

    def test_tie_broken_by_policy_order(self):
        policy = CompressionPolicy(encodings=("deflate", "gzip"))
        assert choose_encoding("gzip, deflate", policy) == "deflate"

    def test_q_zero_refuses(self):
        assert choose_encoding("gzip;q=0, deflate;q=0", CompressionPolicy()) is None

    def test_wildcard(self):
        assert choose_encoding("*", CompressionPolicy()) == "gzip"
        assert choose_encoding("*;q=0", CompressionPolicy()) is None

    def test_unknown_coding_ignored(self):
        assert choose_encoding("br, zstd", CompressionPolicy()) is None


class TestRoundtrip:
    @pytest.mark.parametrize("encoding", ["gzip", "deflate"])
    def test_compress_decompress(self, encoding):
        data = b"payload " * 500
        coded = compress(data, encoding)
        assert coded != data
        assert decompress(coded, encoding, max_size=1 << 20) == data

    def test_raw_deflate_fallback(self):
        # Some peers send raw DEFLATE without the zlib wrapper.
        data = b"raw deflate body " * 100
        raw = zlib.compress(data)[2:-4]
        assert decompress(raw, "deflate", max_size=1 << 20) == data

    def test_bomb_guard(self):
        bomb = compress(b"\0" * 1_000_000, "gzip")
        with pytest.raises(CompressionError) as excinfo:
            decompress(bomb, "gzip", max_size=10_000)
        assert excinfo.value.status == 413

    def test_truncated_stream(self):
        coded = compress(b"hello world " * 50, "gzip")
        with pytest.raises(CompressionError):
            decompress(coded[: len(coded) // 2], "gzip", max_size=1 << 20)


class TestParserDecoding:
    def _request_bytes(self, body: bytes, encoding: str) -> bytes:
        coded = compress(body, encoding)
        return (
            b"POST / HTTP/1.1\r\nHost: h\r\n"
            + f"Content-Encoding: {encoding}\r\n".encode()
            + f"Content-Length: {len(coded)}\r\n\r\n".encode()
            + coded
        )

    @pytest.mark.parametrize("encoding", ["gzip", "deflate"])
    def test_request_body_is_decoded(self, encoding):
        body = b"<env>" + b"x" * 2000 + b"</env>"
        reader = ChannelReader(_Scripted(self._request_bytes(body, encoding)))
        request = read_request(reader)
        assert request.body == body
        assert request.headers.get("Content-Encoding") is None
        assert request.headers.get("Content-Length") == str(len(body))

    def test_unsupported_request_coding_is_415(self):
        raw = (
            b"POST / HTTP/1.1\r\nHost: h\r\nContent-Encoding: br\r\n"
            b"Content-Length: 3\r\n\r\nxxx"
        )
        with pytest.raises(HttpError) as excinfo:
            read_request(ChannelReader(_Scripted(raw)))
        assert excinfo.value.status == 415

    def test_garbage_coded_request_is_400(self):
        raw = (
            b"POST / HTTP/1.1\r\nHost: h\r\nContent-Encoding: gzip\r\n"
            b"Content-Length: 9\r\n\r\nnot-gzip!"
        )
        with pytest.raises(HttpError) as excinfo:
            read_request(ChannelReader(_Scripted(raw)))
        assert excinfo.value.status == 400

    def test_coded_chunked_response(self):
        from .framing import encode_chunked

        body = b"chunked and coded " * 200
        coded = compress(body, "gzip")
        raw = (
            b"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n" + encode_chunked(coded)
        )
        response = read_response(ChannelReader(_Scripted(raw)))
        assert response.body == body


class _Scripted:
    def __init__(self, *chunks: bytes):
        self._chunks = list(chunks)

    def recv(self, max_bytes: int = 65536) -> bytes:
        return self._chunks.pop(0) if self._chunks else b""

    def sendall(self, data: bytes) -> None:  # pragma: no cover
        raise AssertionError("not used")

    def close(self) -> None:  # pragma: no cover
        pass


class TestServerPolicy:
    def _served(self, policy, accept, body=b"b" * 4096):
        from repro.transport.inproc import InProcTransport

        server = HttpServer(
            lambda req: None,
            transport=InProcTransport(),
            address="compression-test",
            compression=policy,
        )
        headers = Headers({"Host": "h"})
        if accept is not None:
            headers.set("Accept-Encoding", accept)
        request = HttpRequest("POST", "/", headers, b"")
        from repro.http.message import HttpResponse

        response = HttpResponse(200, Headers(), body)
        server._maybe_compress(request, response)
        return response

    def test_body_below_min_size_is_untouched(self):
        response = self._served(CompressionPolicy(min_size=1 << 20), "gzip")
        assert response.headers.get("Content-Encoding") is None

    def test_negotiated_body_is_coded_with_vary(self):
        response = self._served(CompressionPolicy(), "gzip")
        assert response.headers.get("Content-Encoding") == "gzip"
        assert response.headers.get("Vary") == "Accept-Encoding"
        assert decompress(response.body, "gzip", max_size=1 << 20) == b"b" * 4096

    def test_incompressible_body_stays_identity(self):
        import os

        response = self._served(CompressionPolicy(), "gzip", body=os.urandom(4096))
        assert response.headers.get("Content-Encoding") is None

    def test_no_policy_means_no_coding(self):
        response = self._served(None, "gzip")
        assert response.headers.get("Content-Encoding") is None
