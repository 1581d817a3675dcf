"""Axis-style handler chain.

The paper deployed SPI "as server handlers" so that "services code need
not be modified" (§3.6).  We reproduce the same extension point: every
message passes through an ordered chain of handlers on the way in
(after SOAP parsing, before dispatch) and on the way out (after
execution, before response serialization).  The SPI pack/unpack logic
in :mod:`repro.core.dispatcher` is exactly such a handler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    packed: bool = False
    deadline: Deadline | None = None

    @classmethod
    def for_envelope(cls, envelope: Envelope) -> "MessageContext":
        return cls(request_envelope=envelope, request_entries=list(envelope.body_entries))


class Handler:
    """Base handler; override either direction.  RPC entries arrive decoded
    (reading a :class:`DecodedEntry`'s children raises); a handler that needs
    their markup reads the Body span the reader recorded, as the verifier does."""

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
