"""Property tests for wire compression.

Two contracts:

* content-coding roundtrips: any body compressed with any supported
  coding survives the incremental HTTP parser (identity, plain and
  chunked framing) byte-for-byte;
* the q-value parser never crashes and only ever returns supported
  values in range.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http.compression import SUPPORTED_ENCODINGS, compress
from repro.http.message import parse_qvalues
from repro.http.parser import ChannelReader, encode_chunked, read_response


class _Scripted:
    def __init__(self, payload: bytes, chunk: int):
        self._chunks = [
            payload[i : i + chunk] for i in range(0, len(payload), chunk)
        ]

    def recv(self, max_bytes: int = 65536) -> bytes:
        return self._chunks.pop(0) if self._chunks else b""

    def sendall(self, data: bytes) -> None:  # pragma: no cover
        raise AssertionError("not used")

    def close(self) -> None:  # pragma: no cover
        pass


@settings(max_examples=60, deadline=None)
@given(
    st.binary(max_size=4096),
    st.sampled_from(SUPPORTED_ENCODINGS),
    st.booleans(),
    st.integers(min_value=1, max_value=977),
)
def test_coded_response_roundtrips_through_parser(body, encoding, chunked, arrival):
    coded = compress(body, encoding)
    head = f"HTTP/1.1 200 OK\r\nContent-Encoding: {encoding}\r\n".encode()
    if chunked:
        raw = head + b"Transfer-Encoding: chunked\r\n\r\n" + encode_chunked(coded)
    else:
        raw = head + f"Content-Length: {len(coded)}\r\n\r\n".encode() + coded
    response = read_response(ChannelReader(_Scripted(raw, arrival)))
    assert response.body == body
    assert response.headers.get("Content-Encoding") is None


@settings(max_examples=120, deadline=None)
@given(st.text(max_size=60))
def test_qvalue_parser_is_total_and_in_range(header):
    for token, q in parse_qvalues(header):
        assert token == token.strip().lower()
        assert 0.0 <= q <= 1.0
