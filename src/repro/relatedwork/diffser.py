"""Differential serialization (Abu-Ghazaleh, Lewis & Govindaraju, HPDC-13).

Related-work baseline the paper compares against in spirit: when a
client sends a stream of similar messages, the expensive serialization
step can be bypassed by saving the previous message as a *template*
with parameter-value holes, then splicing the new values in.

This is orthogonal to SPI packing (it reduces per-message CPU, not the
number of messages); the related-work ablation bench runs both so the
difference is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.soap.envelope import Envelope
from repro.soap.serializer import build_request_envelope
from repro.xmlcore.escape import escape_text


@dataclass(slots=True)
class _Template:
    """Serialized request split around parameter text spans."""

    param_names: tuple[str, ...]
    segments: tuple[str, ...]  # len == len(param_names) + 1
    param_types: tuple[type, ...]


@dataclass(slots=True)
class DiffSerStats:
    hits: int = 0
    misses: int = 0
    bytes_spliced: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: One template per (service, operation); 256 operations is far beyond
#: any WSDL this repo models, so eviction is a safety valve, not a
#: tuning knob.
DEFAULT_MAX_OPERATIONS = 256


class DifferentialSerializer:
    """Serialize RPC requests, reusing a per-operation template when the
    message *structure* (operation + parameter names + value types)
    matches the previous send."""

    def __init__(self, *, max_operations: int = DEFAULT_MAX_OPERATIONS) -> None:
        if max_operations < 1:
            raise ValueError("max_operations must be positive")
        self._max_operations = max_operations
        self._templates: dict[tuple[str, str], _Template] = {}
        self.stats = DiffSerStats()

    def serialize_request(
        self, namespace: str, operation: str, params: Mapping[str, Any]
    ) -> bytes:
        """Serialize a request, splicing into a cached template on a hit."""
        key = (namespace, operation)
        names = tuple(params)
        types = tuple(type(v) for v in params.values())
        template = self._templates.get(key)

        if (
            template is not None
            and template.param_names == names
            and template.param_types == types
            and all(isinstance(v, str) for v in params.values())
        ):
            self.stats.hits += 1
            parts: list[str] = []
            for segment, name in zip(template.segments, names):
                parts.append(segment)
                value = escape_text(params[name])
                self.stats.bytes_spliced += len(value)
                parts.append(value)
            parts.append(template.segments[-1])
            return "".join(parts).encode("utf-8")

        self.stats.misses += 1
        document = _serialize_with_markers(namespace, operation, params)
        rendered, segments = document
        if segments is not None:
            if key not in self._templates and len(self._templates) >= self._max_operations:
                # FIFO eviction: dict preserves insertion order.
                del self._templates[next(iter(self._templates))]
            self._templates[key] = _Template(names, segments, types)
        return rendered.encode("utf-8")

    def invalidate(self, namespace: str | None = None, operation: str | None = None) -> None:
        """Drop cached templates (all, per-service, or per-operation)."""
        if namespace is None:
            self._templates.clear()
            return
        for key in [k for k in self._templates if k[0] == namespace and (operation is None or k[1] == operation)]:
            del self._templates[key]


def _serialize_with_markers(
    namespace: str, operation: str, params: Mapping[str, Any]
) -> tuple[str, tuple[str, ...] | None]:
    """Serialize normally, and — when every parameter is a string —
    also compute the around-value segments for templating.

    Uses unique sentinel values so the value spans can be located in the
    rendered text regardless of how the writer chose prefixes.
    """
    if not params or not all(isinstance(v, str) for v in params.values()):
        envelope = build_request_envelope(namespace, operation, params)
        return envelope.to_string(), None

    sentinels = {
        name: f"\x01DIFFSER{i}\x01" for i, name in enumerate(params)
    }
    envelope = build_request_envelope(namespace, operation, sentinels)
    marked = envelope.to_string()

    segments: list[str] = []
    rest = marked
    for name in params:
        sentinel = sentinels[name]
        before, found, rest = rest.partition(sentinel)
        if not found:
            # Sentinel got escaped/transformed unexpectedly; fall back.
            envelope = build_request_envelope(namespace, operation, params)
            return envelope.to_string(), None
        segments.append(before)
    segments.append(rest)

    parts: list[str] = []
    for segment, name in zip(segments, params):
        parts.append(segment)
        parts.append(escape_text(params[name]))
    parts.append(segments[-1])
    return "".join(parts), tuple(segments)


@dataclass(slots=True)
class ParameterizedMessageCache:
    """Client-side parameterized message caching (Devaram & Andresen,
    PDCS 2003): cache the fully serialized message per operation and
    rewrite only the parameter bytes on subsequent sends.

    Functionally this is the persistent-cache flavour of differential
    serialization; we implement it as a thin facade with its own stats
    so the related-work bench can report the two separately.
    """

    _serializer: DifferentialSerializer = field(default_factory=DifferentialSerializer)

    def get_or_build(
        self, namespace: str, operation: str, params: Mapping[str, Any]
    ) -> bytes:
        """Serialized request bytes, from cache when parameters match."""
        return self._serializer.serialize_request(namespace, operation, params)

    @property
    def stats(self) -> DiffSerStats:
        return self._serializer.stats
