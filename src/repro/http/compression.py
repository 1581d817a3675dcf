"""Negotiated HTTP content-coding (gzip / deflate) for the SOAP binding.

Related work on SOAP performance (Dauda et al.) locates a large share
of call latency in bytes-on-wire; XML's redundancy makes envelopes
highly compressible.  This module implements the negotiation half of
that optimisation: clients advertise ``Accept-Encoding`` with RFC 7231
q-values, servers pick a coding via :func:`choose_encoding` and stamp
``Content-Encoding``, and :func:`decompress` reverses the coding inside
the incremental parser so every layer above HTTP sees identity bytes.

Codings are implemented with :mod:`zlib` only — ``gzip`` is the zlib
stream with the gzip wrapper (``wbits=31``) and ``deflate`` is the zlib
wrapper (``wbits=15``, per RFC 7230's reading of RFC 1950), with a raw
fallback on decode for peers that ship bare deflate streams.
Decompression is bounded to guard against decompression bombs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.errors import HttpError
from repro.http.message import parse_qvalues

#: Codings this implementation can produce/consume, in server
#: preference order (gzip first: better ratio on XML for one extra
#: header byte).
SUPPORTED_ENCODINGS: tuple[str, ...] = ("gzip", "deflate")

#: Below this many identity bytes compression is skipped: the zlib
#: header + Content-Encoding line outweigh the savings, and small
#: envelopes are latency- not bandwidth-bound.
DEFAULT_MIN_SIZE = 256

_GZIP_WBITS = 31  # zlib stream + gzip wrapper
_ZLIB_WBITS = 15  # zlib wrapper (RFC 1950) — HTTP "deflate"
_RAW_WBITS = -15  # bare deflate, the common interop mistake


class CompressionError(HttpError):
    """A content-coding could not be applied or reversed."""


@dataclass(frozen=True, slots=True)
class CompressionPolicy:
    """What a peer is willing to produce.

    ``encodings`` is a preference-ordered subset of
    :data:`SUPPORTED_ENCODINGS`; ``min_size`` suppresses compression of
    small bodies; ``level`` is the zlib effort knob (6 is zlib's own
    default trade-off).
    """

    encodings: tuple[str, ...] = SUPPORTED_ENCODINGS
    min_size: int = DEFAULT_MIN_SIZE
    level: int = 6

    def __post_init__(self) -> None:
        for encoding in self.encodings:
            if encoding not in SUPPORTED_ENCODINGS:
                raise ValueError(f"unsupported content coding '{encoding}'")
        if not 0 <= self.level <= 9:
            raise ValueError(f"zlib level {self.level} outside 0..9")


#: Convenience instance with the defaults above.
DEFAULT_COMPRESSION = CompressionPolicy()


def choose_encoding(
    accept_encoding: str | None, policy: CompressionPolicy = DEFAULT_COMPRESSION
) -> str | None:
    """Pick the content-coding to apply for a peer's ``Accept-Encoding``.

    Returns ``None`` (send identity) when the header is absent, empty,
    or admits nothing we support — identity is always an acceptable
    fallback in this binding, so negotiation never fails a request.
    Among acceptable codings the peer's q-values win; q-ties fall back
    to ``policy`` preference order.  ``*`` stands for any coding not
    named explicitly, and ``q=0`` refuses one.
    """
    pairs = parse_qvalues(accept_encoding)
    if not pairs:
        return None
    explicit = {token: quality for token, quality in pairs}
    wildcard = explicit.get("*")
    best: str | None = None
    best_quality = 0.0
    for rank, encoding in enumerate(policy.encodings):
        quality = explicit.get(encoding)
        if quality is None:
            quality = wildcard
        if not quality:  # absent, or refused with q=0
            continue
        # Strict > keeps policy order as the tiebreak.
        if quality > best_quality:
            best, best_quality = encoding, quality
    return best


def compress(data: bytes, encoding: str, *, level: int = 6) -> bytes:
    """Apply a supported content-coding to ``data``."""
    if encoding == "gzip":
        compressor = zlib.compressobj(level, zlib.DEFLATED, _GZIP_WBITS)
    elif encoding == "deflate":
        compressor = zlib.compressobj(level, zlib.DEFLATED, _ZLIB_WBITS)
    else:
        raise CompressionError(f"cannot produce content coding '{encoding}'")
    return compressor.compress(data) + compressor.flush()


def decompress(data: bytes, encoding: str, *, max_size: int) -> bytes:
    """Reverse a supported content-coding, refusing to inflate past
    ``max_size`` identity bytes (decompression-bomb guard)."""
    if encoding == "gzip":
        candidates = (_GZIP_WBITS,)
    elif encoding == "deflate":
        # RFC 7230 says zlib-wrapped, but bare streams are a widespread
        # interop bug; try the spec reading first.
        candidates = (_ZLIB_WBITS, _RAW_WBITS)
    else:
        raise CompressionError(f"cannot consume content coding '{encoding}'")
    last_error: Exception | None = None
    for wbits in candidates:
        try:
            return _inflate(data, wbits, max_size)
        except zlib.error as exc:
            last_error = exc
    raise CompressionError(f"corrupt {encoding} body: {last_error}")


def _inflate(data: bytes, wbits: int, max_size: int) -> bytes:
    decompressor = zlib.decompressobj(wbits)
    out = decompressor.decompress(data, max_size)
    if decompressor.unconsumed_tail:
        raise CompressionError(
            f"decompressed body exceeds {max_size} bytes", status=413
        )
    if not decompressor.eof:
        raise zlib.error("truncated compressed stream")
    return out
