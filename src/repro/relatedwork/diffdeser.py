"""Differential deserialization (Abu-Ghazaleh & Lewis, SC-05;
Suzumura et al., ICWS'05) — the server-side analogue of
:mod:`repro.relatedwork.diffser`.

"Both of the approaches take advantage of similarities among messages
in an incoming message stream to a web service" (paper §2.2).  When a
request's bytes match the previous message everywhere except inside
known parameter-value spans, the expensive XML parse + typed decode is
bypassed: the new parameter texts are sliced straight out of the byte
stream (the byte-level equivalent of [4]'s parser-state checkpointing).

Templates are learned per ``(namespace, operation)`` from a fully
parsed message by locating each string parameter's escaped value in the
raw bytes; ambiguous messages (value text occurring elsewhere, or
non-string parameters) simply never produce a template and always take
the full-parse path — correctness first, speed when provable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SoapError
from repro.soap.deserializer import RpcRequest, parse_rpc_request
from repro.soap.envelope import Envelope
from repro.xmlcore.escape import escape_text, unescape


@dataclass(slots=True)
class _Template:
    """Fixed byte segments around the parameter-value spans."""

    param_names: tuple[str, ...]
    segments: tuple[bytes, ...]  # len == len(param_names) + 1
    namespace: str
    operation: str


@dataclass(slots=True)
class DiffDeserStats:
    hits: int = 0
    misses: int = 0
    templates: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from a template."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class DifferentialDeserializer:
    """Decode request envelopes, byte-matching against a learned template.

    ``deserialize(raw) -> RpcRequest`` is a drop-in for
    ``parse_rpc_request(Envelope.parse(raw).first_body_entry())``
    on single-entry request envelopes.
    """

    def __init__(self) -> None:
        self._template: _Template | None = None
        self.stats = DiffDeserStats()

    def deserialize(self, raw: bytes) -> RpcRequest:
        """Decode one request message (template fast path, else full parse)."""
        template = self._template
        if template is not None:
            values = _match_template(raw, template.segments)
            if values is not None:
                self.stats.hits += 1
                params = {
                    name: unescape(value.decode("utf-8"))
                    for name, value in zip(template.param_names, values)
                }
                return RpcRequest(template.namespace, template.operation, params)

        self.stats.misses += 1
        request = self._full_parse(raw)
        self._learn(raw, request)
        return request

    # -- internals -----------------------------------------------------

    @staticmethod
    def _full_parse(raw: bytes) -> RpcRequest:
        envelope = Envelope.parse(raw, server=True)
        entries = envelope.body_entries
        if len(entries) != 1:
            raise SoapError(
                "differential deserialization handles single-entry bodies"
            )
        return parse_rpc_request(entries[0])

    def _learn(self, raw: bytes, request: RpcRequest) -> None:
        """Derive a byte template when every parameter locates uniquely."""
        if not request.params or not all(
            isinstance(v, str) and v for v in request.params.values()
        ):
            return
        segments: list[bytes] = []
        cursor = 0
        for value in request.params.values():
            needle = escape_text(value).encode("utf-8")
            first = raw.find(needle, cursor)
            if first == -1 or raw.find(needle, first + 1) != -1:
                return  # absent or ambiguous: no template
            segments.append(raw[cursor:first])
            cursor = first + len(needle)
        segments.append(raw[cursor:])
        self._template = _Template(
            tuple(request.params),
            tuple(segments),
            request.namespace,
            request.operation,
        )
        self.stats.templates += 1

    def invalidate(self) -> None:
        """Drop the learned template (e.g. after redeployment)."""
        self._template = None


def _match_template(
    raw: bytes, segments: tuple[bytes, ...]
) -> list[bytes] | None:
    """If ``raw`` equals the segments with arbitrary value bytes between
    them, return those value spans; otherwise None."""
    if not raw.startswith(segments[0]):
        return None
    values: list[bytes] = []
    cursor = len(segments[0])
    for segment in segments[1:-1]:
        index = raw.find(segment, cursor)
        if index == -1:
            return None
        values.append(raw[cursor:index])
        cursor = index + len(segment)
    last = segments[-1]
    if not raw.endswith(last) or len(raw) - len(last) < cursor:
        return None
    values.append(raw[cursor : len(raw) - len(last)])
    # value spans must not contain markup (a structural change would
    # otherwise masquerade as a value)
    if any(b"<" in value for value in values):
        return None
    return values
