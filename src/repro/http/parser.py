"""The HTTP/1.1 framer: one incremental parser for requests and responses.

:class:`MessageParser` is *fed* bytes and asked for complete messages;
it is the only place ``Content-Length`` / ``chunked`` / trailer framing,
the size limits and the error statuses are decided.  Both server
drivers feed it what their sockets deliver; :class:`ChannelReader` with
:func:`read_request` / :func:`read_response` is the same parser fed from
a blocking :class:`~repro.transport.base.Channel` (the client side).
"""

from __future__ import annotations

from repro.errors import HttpError
from repro.http.compression import (
    SUPPORTED_ENCODINGS,
    CompressionError,
    decompress,
)
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.transport.base import Channel

MAX_HEAD_BYTES = 64 * 1024
MAX_BODY_BYTES = 256 * 1024 * 1024
MAX_CHUNK_SIZE_LINE_BYTES = 1024
_HEAD_TOO_LONG = f"message head exceeds {MAX_HEAD_BYTES} bytes"
_CRLF = b"\r\n"
_HEAD_END = b"\r\n\r\n"


class ConnectionClosedCleanly(HttpError):
    """Peer closed between messages — normal end of a keep-alive session."""


def _parse_head(head: bytes) -> tuple[str, Headers]:
    lines = head.decode("latin-1").split("\r\n")
    headers = Headers()
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip():
            raise HttpError(f"malformed header line '{line}'", status=400)
        headers.add(name, value.strip())
    return lines[0], headers


def _parse_request_head(head: bytes) -> HttpRequest:
    """Validate a request head; the request it opens, body still empty."""
    request_line, headers = _parse_head(head)
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise HttpError(f"malformed request line '{request_line}'", status=400)
    method, path, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(f"unsupported HTTP version '{version}'", status=400)
    return HttpRequest(method, path, headers, b"", version)


def _parse_response_head(head: bytes) -> HttpResponse:
    """Validate a response head; the response it opens, body still empty."""
    status_line, headers = _parse_head(head)
    parts = status_line.split(" ", 2)
    if len(parts) < 2:
        raise HttpError(f"malformed status line '{status_line}'")
    version, status_text = parts[0], parts[1]
    reason = parts[2] if len(parts) == 3 else ""
    try:
        status = int(status_text)
    except ValueError:
        raise HttpError(f"non-numeric status '{status_text}'") from None
    return HttpResponse(status, headers, b"", reason, version)


def _decode_content(body: bytes, headers: Headers, *, is_request: bool) -> bytes:
    """Reverse any ``Content-Encoding`` so callers see identity bytes.

    The header is removed after decoding — the message no longer
    carries the coding, and re-serializing it must not claim one.  An
    unsupported coding on a *request* is the client's fault (415); on a
    response it surfaces as a plain :class:`HttpError` for the client's
    retry policy to judge.
    """
    encoding = headers.get_token("Content-Encoding")
    if not encoding or encoding == "identity":
        return body
    if encoding not in SUPPORTED_ENCODINGS:
        raise HttpError(
            f"unsupported content encoding '{encoding}'",
            status=415 if is_request else None,
        )
    if not body:
        headers.remove("Content-Encoding")
        return body
    try:
        decoded = decompress(body, encoding, max_size=MAX_BODY_BYTES)
    except CompressionError as exc:
        if exc.status == 413:
            raise
        raise HttpError(
            f"undecodable {encoding} body: {exc}",
            status=400 if is_request else None,
        ) from exc
    headers.remove("Content-Encoding")
    headers.set("Content-Length", str(len(decoded)))
    return decoded


class MessageParser:
    """Incremental (push-mode) HTTP/1.1 parser for one direction of one
    connection.

    :meth:`feed` buffers bytes as they come off the wire;
    :meth:`next_message` (:meth:`next_request` on the server side)
    returns the next complete message, or ``None`` until more bytes
    arrive.  A malformed or oversized message raises
    :class:`~repro.errors.HttpError` — on the request side with the
    status to answer — after which the connection must be closed
    (framing state is unrecoverable).
    """

    _HEAD = 0  # accumulating the message head
    _BODY = 1  # fixed-length body
    _CHUNK_SIZE = 2  # chunked: expecting a size line
    _CHUNK_DATA = 3  # chunked: expecting size+CRLF bytes of data
    _TRAILER = 4  # chunked: consuming trailer lines

    __slots__ = ("_buffer", "_state", "_message", "_body", "_body_remaining")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._state = self._HEAD
        self._message: HttpRequest | HttpResponse | None = None
        self._body = bytearray()
        self._body_remaining = 0

    @property
    def has_buffered_data(self) -> bool:
        """True when bytes are buffered (a partial or pipelined message)."""
        return bool(self._buffer) or self._state != self._HEAD

    def feed(self, data: bytes) -> None:
        """Buffer one chunk as read off the wire."""
        self._buffer.extend(data)

    def eof_error(self) -> HttpError:
        """What an EOF now means: a clean close between messages, or a
        message cut short."""
        if not self.has_buffered_data:
            return ConnectionClosedCleanly("peer closed the connection")
        where = "message" if self._state == self._HEAD else "body"
        return HttpError(f"connection closed mid-{where}")

    def next_request(self) -> HttpRequest | None:
        """The next complete request, or ``None`` until more bytes arrive."""
        return self.next_message(is_request=True)

    def next_message(self, *, is_request: bool) -> HttpRequest | HttpResponse | None:
        """Advance the framing machine as far as the buffered bytes go.

        Raises :class:`~repro.errors.HttpError` on malformed framing.
        """
        buffer = self._buffer
        while True:
            if self._state == self._HEAD:
                if not buffer:
                    return None
                index = self._scan(_HEAD_END, MAX_HEAD_BYTES, 413, _HEAD_TOO_LONG)
                if index == -1:
                    return None
                head = bytes(buffer[: index + len(_HEAD_END)])
                del buffer[: index + len(_HEAD_END)]
                parse_head = _parse_request_head if is_request else _parse_response_head
                self._message = parse_head(head)
                headers = self._message.headers
                encoding = headers.get_token("Transfer-Encoding")
                if encoding == "chunked":
                    self._state = self._CHUNK_SIZE
                    continue
                if encoding and encoding != "identity":
                    raise HttpError(
                        f"unsupported transfer encoding '{encoding}'", status=400
                    )
                length_text = headers.get("Content-Length")
                if length_text is None:
                    # Requests must declare a length (we do not accept
                    # read-to-EOF requests); responses without one have
                    # no body in our binding.
                    if is_request and headers.get("Content-Type"):
                        raise HttpError(
                            "request has a body but no Content-Length", status=411
                        )
                    return self._complete(b"", is_request)
                try:
                    length = int(length_text)
                    if length < 0:
                        raise ValueError
                except ValueError:
                    raise HttpError(
                        f"bad Content-Length '{length_text}'", status=400
                    ) from None
                if length > MAX_BODY_BYTES:
                    raise HttpError(
                        f"body of {length} bytes exceeds limit", status=413
                    )
                self._body_remaining = length
                self._state = self._BODY
                continue

            if self._state == self._BODY:
                if len(buffer) < self._body_remaining:
                    return None
                with memoryview(buffer) as view:  # one copy, not slice + bytes
                    body = bytes(view[: self._body_remaining])
                del buffer[: self._body_remaining]
                return self._complete(body, is_request)

            if self._state == self._CHUNK_SIZE:
                line_end = self._scan(
                    _CRLF, MAX_CHUNK_SIZE_LINE_BYTES, 400, "chunk size line too long"
                )
                if line_end == -1:
                    return None
                size_text = bytes(buffer[:line_end]).strip().split(b";")[0]
                del buffer[: line_end + len(_CRLF)]
                try:
                    size = int(size_text, 16)
                    if size < 0:
                        raise ValueError
                except ValueError:
                    raise HttpError(
                        f"bad chunk size {size_text!r}", status=400
                    ) from None
                if size == 0:
                    self._state = self._TRAILER
                    continue
                if len(self._body) + size > MAX_BODY_BYTES:
                    raise HttpError("chunked body exceeds limit", status=413)
                self._body_remaining = size
                self._state = self._CHUNK_DATA
                continue

            if self._state == self._CHUNK_DATA:
                need = self._body_remaining + len(_CRLF)
                if len(buffer) < need:
                    return None
                self._body.extend(buffer[: self._body_remaining])
                terminator = bytes(buffer[self._body_remaining : need])
                del buffer[:need]
                if terminator != _CRLF:
                    raise HttpError("chunk not terminated by CRLF", status=400)
                self._state = self._CHUNK_SIZE
                continue

            # _TRAILER: trailer fields are consumed and ignored
            line_end = self._scan(_CRLF, MAX_HEAD_BYTES, 413, "trailer section too long")
            if line_end == -1:
                return None
            del buffer[: line_end + len(_CRLF)]
            if line_end == 0:
                return self._complete(bytes(self._body), is_request)

    def _scan(self, marker: bytes, limit: int, status: int, too_long: str) -> int:
        """Where ``marker`` starts in the buffer, ``-1`` until it arrives.

        More than ``limit`` bytes before it is an error — decided by
        where the marker is (or can still turn up), never by how the
        bytes happened to be cut into ``recv`` s.
        """
        index = self._buffer.find(marker)
        preceding = index if index != -1 else len(self._buffer) - len(marker) + 1
        if preceding > limit:
            raise HttpError(too_long, status=status)
        return index

    def _complete(self, body: bytes, is_request: bool) -> HttpRequest | HttpResponse:
        message = self._message
        assert message is not None
        message.body = _decode_content(body, message.headers, is_request=is_request)
        self._message = None
        self._body = bytearray()
        self._body_remaining = 0
        self._state = self._HEAD
        return message


#: The name the server side knows the parser by.
RequestParser = MessageParser


class ChannelReader:
    """A :class:`MessageParser` fed from a blocking :class:`Channel`."""

    __slots__ = ("_channel", "_parser")

    def __init__(self, channel: Channel) -> None:
        self._channel = channel
        self._parser = MessageParser()

    def read_message(self, *, is_request: bool) -> HttpRequest | HttpResponse:
        """``feed(channel.recv())`` until a message completes; EOF raises
        :class:`ConnectionClosedCleanly` between messages and
        :class:`~repro.errors.HttpError` inside one."""
        parser = self._parser
        while (message := parser.next_message(is_request=is_request)) is None:
            chunk = self._channel.recv()
            if not chunk:
                raise parser.eof_error()
            parser.feed(chunk)
        return message


def read_request(reader: ChannelReader) -> HttpRequest:
    """Read one complete HTTP request from the channel."""
    return reader.read_message(is_request=True)


def read_response(reader: ChannelReader) -> HttpResponse:
    """Read one complete HTTP response from the channel."""
    return reader.read_message(is_request=False)
