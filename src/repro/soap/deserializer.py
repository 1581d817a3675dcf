"""RPC-style SOAP deserialization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import SoapError
from repro.soap.constants import FAULT_TAG
from repro.soap.envelope import Envelope, iter_body_entries
from repro.soap.fault import ClientFaultCause, SoapFault
from repro.soap.serializer import RESPONSE_SUFFIX, RETURN_TAG
from repro.soap.xsdtypes import decode_value
from repro.xmlcore.tree import Element


@dataclass(slots=True)
class RpcRequest:
    """A decoded RPC request body entry."""

    namespace: str
    operation: str
    params: dict[str, Any]
    request_id: str | None = None


@dataclass(slots=True)
class RpcResponse:
    """A decoded RPC response body entry."""

    namespace: str
    operation: str
    value: Any
    request_id: str | None = None


class OperationMatcher:
    """Lookup of expected ``{namespace}operation`` tags."""

    def __init__(self) -> None:
        self._handlers: dict[str, Any] = {}

    def register(self, namespace: str, operation: str, handler: Any = True) -> None:
        """Add an expected operation (and its handler)."""
        self._handlers[f"{{{namespace}}}{operation}"] = handler

    def match(self, element: Element) -> Any:
        """Handler registered for this element's tag, or None."""
        return self._handlers.get(element.tag)

    def __contains__(self, tag: str) -> bool:
        return tag in self._handlers

    def __len__(self) -> int:
        return len(self._handlers)


def parse_rpc_request(
    element: Element, matcher: OperationMatcher | None = None
) -> RpcRequest:
    """Decode one request body entry.

    When ``matcher`` is given, unknown operations raise
    :class:`ClientFaultCause` so the endpoint can return a Client fault.
    """
    qname = element.qname  # the entry's tag, split once
    if matcher is not None and matcher.match(element) is None:
        raise ClientFaultCause(f"no such operation '{qname.local}'")
    params: dict[str, Any] = {}
    for child in element.children:
        if isinstance(child, Element):
            name = child.tag.rpartition("}")[2]  # its local name
            if name in params:
                raise ClientFaultCause(f"duplicate parameter '{name}'")
            params[name] = decode_value(child)
    return RpcRequest(qname.uri, qname.local, params)


def parse_rpc_response(element: Element) -> RpcResponse:
    """Decode one response body entry; faults raise ``SoapFaultError``."""
    if element.tag == FAULT_TAG:
        raise SoapFault.from_element(element).to_exception()
    qname = element.qname  # the entry's tag, split once
    local = qname.local
    if not local.endswith(RESPONSE_SUFFIX):
        raise SoapError(f"<{local}> is not an RPC response element")
    operation = local[: -len(RESPONSE_SUFFIX)]
    children = element.element_children()
    if len(children) != 1 or children[0].tag.rpartition("}")[2] != RETURN_TAG:
        raise SoapError(f"response <{local}> must contain exactly one <return>")
    return RpcResponse(qname.uri, operation, decode_value(children[0]))


def parse_response_envelope(envelope: Envelope) -> RpcResponse:
    """Decode a classic single-entry response envelope."""
    return parse_rpc_response(envelope.first_body_entry())


def parse_response_document(document: str | bytes) -> RpcResponse:
    """Decode a classic single-entry response document via the pull
    path, skipping any response headers."""
    return parse_rpc_response(next(iter_body_entries(document)))
