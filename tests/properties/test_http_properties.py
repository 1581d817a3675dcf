"""Property-based tests for the HTTP layer.

The central invariant: parsing is insensitive to how bytes are split
across recv() calls — any fragmentation of a message stream, valid or
not, must produce the same messages or the same error.  With one framer
under every reader this is the property that stands where "the pull
parser agrees with the push parser" used to.
"""

import re
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HttpError
from repro.http.compression import compress
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.parser import ChannelReader, encode_chunked, read_request, read_response

token_chars = string.ascii_letters + string.digits + "-_"
header_names = st.text(alphabet=token_chars, min_size=1, max_size=12)
header_values = st.text(
    alphabet=string.ascii_letters + string.digits + " ;,=/.", max_size=20
).map(str.strip)
bodies = st.binary(max_size=500)


class FragmentedChannel:
    """Feeds a byte string in caller-chosen fragment sizes."""

    def __init__(self, data: bytes, cut_points: list[int]):
        self._fragments = []
        last = 0
        for cut in sorted(set(c % (len(data) + 1) for c in cut_points)):
            if cut > last:
                self._fragments.append(data[last:cut])
                last = cut
        if last < len(data):
            self._fragments.append(data[last:])

    def recv(self, max_bytes: int = 65536) -> bytes:
        if not self._fragments:
            return b""
        return self._fragments.pop(0)


@settings(max_examples=60)
@given(
    st.dictionaries(header_names, header_values, max_size=5),
    bodies,
    st.lists(st.integers(min_value=0, max_value=10_000), max_size=12),
)
def test_request_parse_is_fragmentation_invariant(headers, body, cuts):
    original = HttpRequest("POST", "/svc", Headers(headers), body)
    raw = original.to_bytes()
    parsed = read_request(ChannelReader(FragmentedChannel(raw, cuts)))
    assert parsed.method == "POST"
    assert parsed.path == "/svc"
    assert parsed.body == body
    for name, value in headers.items():
        assert parsed.headers.get(name) == original.headers.get(name)


@settings(max_examples=60)
@given(
    st.sampled_from([200, 204, 400, 404, 500, 503]),
    bodies,
    st.lists(st.integers(min_value=0, max_value=10_000), max_size=12),
)
def test_response_parse_is_fragmentation_invariant(status, body, cuts):
    original = HttpResponse(status, Headers({"Content-Type": "text/xml"}), body)
    raw = original.to_bytes()
    parsed = read_response(ChannelReader(FragmentedChannel(raw, cuts)))
    assert parsed.status == status
    assert parsed.body == body


@settings(max_examples=60)
@given(bodies, st.integers(min_value=1, max_value=64))
def test_chunked_encoding_round_trip(body, chunk_size):
    encoded = encode_chunked(body, chunk_size=chunk_size)
    raw = (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + encoded
    )
    parsed = read_response(ChannelReader(FragmentedChannel(raw, [7, 13, 99])))
    assert parsed.body == body


@settings(max_examples=60)
@given(
    st.lists(st.tuples(st.text(alphabet=token_chars, min_size=1, max_size=30), bodies), min_size=1, max_size=5),
    st.lists(st.integers(min_value=0, max_value=50_000), max_size=20),
)
def test_pipelined_requests_parse_in_order(messages, cuts):
    """Back-to-back keep-alive requests on one stream stay distinct."""
    raw = b"".join(
        HttpRequest("POST", f"/{path}", body=body).to_bytes()
        for path, body in messages
    )
    reader = ChannelReader(FragmentedChannel(raw, cuts))
    for path, body in messages:
        parsed = read_request(reader)
        assert parsed.path == f"/{path}"
        assert parsed.body == body


@settings(max_examples=40)
@given(st.dictionaries(header_names, header_values, max_size=8))
def test_headers_case_insensitivity(headers):
    h = Headers(headers)
    for name in headers:
        assert h.get(name.upper()) == h.get(name.lower()) == h.get(name)
        assert name.swapcase() in h


# -- any bytes, any cuts: the same message or the same error -------------

START_LINES = {
    True: ["POST /svc HTTP/1.1", "GET /x HTTP/1.0", "POST HTTP/1.1", "POST / HTTP/2.0"],
    False: ["HTTP/1.1 200 OK", "HTTP/1.0 503 Service Unavailable", "HTTP/1.1 204",
            "HTTP/1.1 abc OK", "HTTP/1.1"],
}

#: header lines that break or contradict the framing declared before them
odd_lines = st.sampled_from(
    [
        "Content-Length: 9999",  # more than ever arrives: EOF mid-body
        "Content-Length: -5",
        "Content-Length: nope",
        "Transfer-Encoding: gzip",
        "Transfer-Encoding: identity",
        "Content-Encoding: br",
        "Content-Type: text/xml",
        "Bad Header",
        " Leading: x",
        # either side of the 64 KB head limit
        "X-Pad: " + "x" * 65_400,
        "X-Pad: " + "x" * 65_600,
    ]
)


@st.composite
def chunked_bodies(draw):
    """A chunked body: extensions either side of the 1 KB size-line limit,
    trailers either side of the 64 KB one, now and then a broken frame."""
    out = bytearray()
    for chunk in draw(st.lists(st.binary(min_size=1, max_size=15), max_size=3)):
        extension = draw(st.sampled_from([0, 7, 1022, 1023]))
        out += b"%x;" % len(chunk) + b"e" * extension + b"\r\n" + chunk
        out += draw(st.sampled_from([b"\r\n"] * 5 + [b"XX"]))
    out += draw(st.sampled_from([b"0\r\n"] * 5 + [b"zz\r\n", b"-3\r\n"]))
    for length in draw(st.lists(st.sampled_from([5, 65_531, 65_532]), max_size=2)):
        out += b"X-T: " + b"t" * length + b"\r\n"
    return bytes(out + b"\r\n")


@st.composite
def cut_messages(draw, is_request):
    """One message as it might arrive — mostly well-formed, sometimes
    contradicted by an odd header or cut short — and where its bytes are
    split: anywhere, and around every CRLF (where a limit check that
    looked only at whole reads would answer differently)."""
    kind = draw(st.sampled_from(["sized", "coded", "chunked"]))
    if kind == "chunked":
        body, framing = draw(chunked_bodies()), ["Transfer-Encoding: chunked"]
    elif kind == "coded":
        body = compress(draw(bodies), "gzip")
        framing = ["Content-Encoding: gzip", "Content-Length: {n}"]
    else:
        body, framing = draw(bodies), ["Content-Length: {n}"]
    lines = [draw(st.sampled_from(START_LINES[is_request]))] + framing
    lines += draw(st.lists(odd_lines, max_size=2))
    head = "\r\n".join(lines).format(n=len(body)).encode("latin-1") + b"\r\n\r\n"
    raw = head + body
    if draw(st.integers(0, 3)) == 0:
        raw = raw[: draw(st.integers(min_value=0, max_value=len(raw)))]
    line_ends = [match.start() for match in re.finditer(b"\r\n", raw)] or [0]
    cut = st.one_of(
        st.integers(min_value=0, max_value=len(raw)),
        st.builds(int.__add__, st.sampled_from(line_ends), st.integers(-1, 2)),
    )
    return raw, draw(st.lists(cut, max_size=6))


def outcome(raw, cuts, *, is_request):
    """Everything a caller can see of reading one message off ``raw``."""
    reader = ChannelReader(FragmentedChannel(raw, cuts))
    try:
        message = reader.read_message(is_request=is_request)
    except HttpError as exc:
        return type(exc).__name__, exc.status, str(exc)
    start = (
        (message.method, message.path)
        if is_request
        else (message.status, message.reason)
    )
    return start, message.version, list(message.headers.items()), message.body


@settings(max_examples=200, deadline=None)
@given(cut_messages(is_request=True))
def test_any_request_bytes_parse_the_same_however_cut(message):
    raw, cuts = message
    assert outcome(raw, cuts, is_request=True) == outcome(raw, [], is_request=True)


@settings(max_examples=200, deadline=None)
@given(cut_messages(is_request=False))
def test_any_response_bytes_parse_the_same_however_cut(message):
    raw, cuts = message
    assert outcome(raw, cuts, is_request=False) == outcome(raw, [], is_request=False)
