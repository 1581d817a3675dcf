"""Axis-style handler chain.

The paper deployed SPI "as server handlers" so that "services code need
not be modified" (§3.6).  We reproduce the same extension point: every
message passes through an ordered chain of handlers on the way in
(after SOAP parsing, before dispatch) and on the way out (after
execution, before response serialization).  The SPI pack/unpack logic
in :mod:`repro.core.dispatcher` is exactly such a handler.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs.registry import Histogram, MetricsRegistry
from repro.resilience.policy import Deadline
from repro.soap.envelope import Envelope
from repro.xmlcore.tree import Element


@dataclass(slots=True)
class MessageContext:
    """Mutable state threaded through the chain for one HTTP exchange.

    ``request_entries`` starts as the envelope's body entries; request
    handlers may rewrite it (the SPI unpack handler replaces one
    ``Parallel_Method`` entry with its M children).  After execution
    ``response_entries`` holds one response element per request entry,
    in order; response handlers may rewrite that list too (the SPI pack
    handler folds M responses back into one ``Parallel_Method``).

    ``deadline`` is the request's propagated execution deadline (from
    the client's ``<res:Deadline>`` header), rebased onto this server's
    clock — None when the client sent no budget.
    """

    request_envelope: Envelope
    request_entries: list[Element] = field(default_factory=list)
    response_entries: list[Element] = field(default_factory=list)
    understood_headers: set[str] = field(default_factory=set)
    properties: dict[str, Any] = field(default_factory=dict)
    packed: bool = False
    deadline: Deadline | None = None

    @classmethod
    def for_envelope(cls, envelope: Envelope) -> "MessageContext":
        return cls(request_envelope=envelope, request_entries=list(envelope.body_entries))


class Handler:
    """Base handler; override either direction."""

    name = "handler"

    def invoke_request(self, context: MessageContext) -> None:
        """Called after SOAP parsing, before dispatch."""

    def invoke_response(self, context: MessageContext) -> None:
        """Called after execution, before response serialization."""


class HandlerChain:
    """Ordered handlers; requests run first→last, responses last→first."""

    def __init__(self, handlers: list[Handler] | None = None) -> None:
        self._handlers: list[Handler] = list(handlers or [])

    def add(self, handler: Handler) -> "HandlerChain":
        """Append a handler; returns self for chaining."""
        self._handlers.append(handler)
        return self

    def names(self) -> list[str]:
        """The handlers' names, in request order."""
        return [h.name for h in self._handlers]

    def __len__(self) -> int:
        return len(self._handlers)

    def run_request(self, context: MessageContext) -> None:
        """Invoke every handler's request side, first to last."""
        for handler in self._handlers:
            handler.invoke_request(context)

    def run_response(self, context: MessageContext) -> None:
        """Invoke every handler's response side, last to first."""
        for handler in reversed(self._handlers):
            handler.invoke_response(context)


EXECUTE_MS_BOUNDS = (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0)


class PackMetricsHandler(Handler):
    """Measures packing effectiveness on the server.

    Records, per HTTP exchange: the packing degree (entries per
    message), and end-to-end service time between the request chain and
    the response chain (i.e. the whole execution phase).

    With a ``registry``, the two histograms are created *in* it (names
    ``pack.degree`` and ``pack.execute_ms``) so they appear in the
    unified ``/metrics`` snapshot alongside the span histograms.
    """

    name = "pack-metrics"

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        if registry is None:
            self.pack_degree = Histogram()
            self.execute_ms = Histogram(bounds=EXECUTE_MS_BOUNDS)
        else:
            self.pack_degree = registry.histogram("pack.degree")
            self.execute_ms = registry.histogram("pack.execute_ms", EXECUTE_MS_BOUNDS)
        self.packed_messages = 0
        self.plain_messages = 0
        self._lock = threading.Lock()

    def invoke_request(self, context: MessageContext) -> None:
        context.properties["pack-metrics.start"] = time.perf_counter()

    def invoke_response(self, context: MessageContext) -> None:
        start = context.properties.get("pack-metrics.start")
        elapsed_ms = (time.perf_counter() - start) * 1e3 if start else 0.0
        degree = len(context.request_entries)
        with self._lock:
            self.pack_degree.record(degree)
            self.execute_ms.record(elapsed_ms)
            if context.packed:
                self.packed_messages += 1
            else:
                self.plain_messages += 1

    @property
    def amortization(self) -> float:
        """Mean requests carried per SOAP message — the quantity SPI
        exists to raise above 1.0."""
        return self.pack_degree.mean

    def snapshot(self) -> dict:
        """All counters as a plain dict."""
        with self._lock:
            return {
                "packed_messages": self.packed_messages,
                "plain_messages": self.plain_messages,
                "amortization": self.amortization,
                "pack_degree": self.pack_degree.snapshot(),
                "execute_ms": self.execute_ms.snapshot(),
            }
