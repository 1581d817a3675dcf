"""HTTP/1.1 request and response models plus header handling."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import HttpError

HTTP_VERSION = "HTTP/1.1"

REASON_PHRASES = {
    100: "Continue",
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class Headers:
    """Case-insensitive, order-preserving HTTP header map.

    Stores single values per name (sufficient for the SOAP binding;
    ``add`` folds repeats with commas per RFC 7230 §3.2.2).
    """

    __slots__ = ("_entries",)

    def __init__(self, initial: dict[str, str] | None = None) -> None:
        self._entries: dict[str, tuple[str, str]] = {}
        for name, value in (initial or {}).items():
            self.set(name, value)

    def set(self, name: str, value: str) -> None:
        """Set (replace) a header value."""
        self._entries[name.lower()] = (name, str(value))

    def add(self, name: str, value: str) -> None:
        """Add a value, comma-folding with any existing one (RFC 7230)."""
        key = name.lower()
        if key in self._entries:
            original, existing = self._entries[key]
            self._entries[key] = (original, f"{existing}, {value}")
        else:
            self._entries[key] = (name, value)

    def get(self, name: str, default: str | None = None) -> str | None:
        """Value for ``name`` (case-insensitive), or ``default``."""
        entry = self._entries.get(name.lower())
        return entry[1] if entry is not None else default

    def get_token(self, name: str) -> str:
        """Lowercased, stripped value for a token-valued header.

        The case-insensitive lookup helper for headers whose *values*
        are case-insensitive tokens (``Connection``, ``Content-Encoding``,
        ``Transfer-Encoding``): one call replaces the
        ``(headers.get(...) or "").lower()`` pattern and removes the
        temptation to compare token values exact-case.
        """
        entry = self._entries.get(name.lower())
        return entry[1].strip().lower() if entry is not None else ""

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def remove(self, name: str) -> None:
        """Delete a header if present; idempotent."""
        self._entries.pop(name.lower(), None)

    def items(self) -> Iterator[tuple[str, str]]:
        """(original-case name, value) pairs in insertion order."""
        return iter(self._entries.values())

    def copy(self) -> "Headers":
        """Independent copy of this header map."""
        clone = Headers()
        clone._entries = dict(self._entries)
        return clone

    def __repr__(self) -> str:  # pragma: no cover
        return f"Headers({dict(self.items())!r})"


def parse_qvalues(value: str | None) -> list[tuple[str, float]]:
    """Parse an ``Accept-Encoding``-style header into ``(token, q)`` pairs.

    Tokens are lowercased; quality values follow RFC 7231 §5.3.1
    (``q`` between 0 and 1, up to three decimals, defaulting to 1 when
    absent).  Malformed members are skipped rather than rejected —
    content negotiation headers come from arbitrary peers and a bad
    member must not fail the whole request.  Pairs are returned in
    header order; ties on ``q`` are broken by the caller's own
    preference order.
    """
    if not value:
        return []
    pairs: list[tuple[str, float]] = []
    for member in value.split(","):
        member = member.strip()
        if not member:
            continue
        token, _, params = member.partition(";")
        token = token.strip().lower()
        if not token:
            continue
        quality = 1.0
        ok = True
        for param in params.split(";") if params else []:
            name, sep, raw = param.partition("=")
            if name.strip().lower() != "q":
                continue  # unknown extension parameter: ignore
            try:
                quality = float(raw.strip()) if sep else 1.0
            except ValueError:
                ok = False
                break
            if not 0.0 <= quality <= 1.0:
                ok = False
                break
        if ok:
            pairs.append((token, quality))
    return pairs


def encode_head(start_line: str, headers: Headers) -> bytes:
    """The one HTTP head encoder: start line, header lines, blank line."""
    lines = [start_line]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"


@dataclass(slots=True)
class HttpRequest:
    method: str = "POST"
    path: str = "/"
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    version: str = HTTP_VERSION

    def to_bytes(self) -> bytes:
        """Serialize head+body with a correct Content-Length."""
        headers = self.headers.copy()
        headers.set("Content-Length", str(len(self.body)))
        return encode_head(f"{self.method} {self.path} {self.version}", headers) + self.body

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get_token("Connection")
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


@dataclass(slots=True)
class HttpResponse:
    status: int = 200
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    reason: str = ""
    version: str = HTTP_VERSION

    def __post_init__(self) -> None:
        if not self.reason:
            self.reason = REASON_PHRASES.get(self.status, "Unknown")

    def to_bytes(self) -> bytes:
        """Serialize head+body with a correct Content-Length."""
        headers = self.headers.copy()
        headers.set("Content-Length", str(len(self.body)))
        return encode_head(f"{self.version} {self.status} {self.reason}", headers) + self.body

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def raise_for_status(self) -> "HttpResponse":
        """Return self on 2xx; raise HttpError otherwise."""
        if not self.ok:
            raise HttpError(
                f"HTTP {self.status} {self.reason}: {self.body[:200]!r}",
                status=self.status,
            )
        return self

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get_token("Connection")
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"
