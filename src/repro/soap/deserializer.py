"""RPC-style SOAP deserialization, from two sources.

The tree source decodes ``Element`` entries.  The scanner source decodes
a document's RPC entries straight off the scanner's value walk into
:class:`DecodedEntry` objects, with no tree below their tags.  Anything
the walk does not read (see ``XmlScanner.read_values``), a duplicate
parameter or a response that is not one ``<return>`` restarts the
document on the tree source, so every error is the tree source's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import SoapError
from repro.soap.constants import FAULT_TAG, PARALLEL_METHOD
from repro.soap.envelope import Envelope, walk_envelope
from repro.soap.fault import ClientFaultCause, SoapFault
from repro.soap.multiref import resolve_multirefs
from repro.soap.serializer import RESPONSE_SUFFIX, RETURN_TAG
from repro.soap.xsdtypes import decode_value, value_rule
from repro.xmlcore.qname import QName
from repro.xmlcore.tree import Element
from repro.xmlcore.treebuilder import Unusual, XmlScanner


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


class DecodedEntry(Element):
    """A body entry decoded off the scanner: its tag and attributes
    (``requestID``, ``spi:oneWay``), and the :class:`RpcRequest` or
    :class:`RpcResponse` its children held.  Reading them raises."""

    __slots__ = ("decoded",)

    def __init__(self, tag: str, attributes: tuple, decoded: RpcRequest | RpcResponse, nsmap=None) -> None:
        self.tag, self._attrs, self.nsmap = tag, attributes, nsmap or {}
        self.decoded = decoded

    @property
    def children(self) -> list:
        raise SoapError(f"<{self.local_name}> was decoded off the scanner; it has no children")


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
    if isinstance(element, DecodedEntry):
        return element.decoded
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
    if isinstance(element, DecodedEntry):
        return element.decoded
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


def read_request_envelope(document: str | bytes) -> Envelope:
    """The tree source for a server: Axis href/multiRef graphs inlined
    before anything downstream sees the entries."""
    envelope = Envelope.parse(document, server=True)
    envelope.body_entries = resolve_multirefs(envelope.body_entries)
    return envelope


def decode_request_envelope(document: str | bytes) -> Envelope:
    """The scanner source for a server: headers are trees, each request
    entry (in a ``Parallel_Method`` or not) a :class:`DecodedEntry`."""
    envelope = Envelope()
    try:
        envelope.body_entries = list(walk_envelope(document, envelope, _read_request))
    except Exception:  # anything unusual: the tree source says what
        return read_request_envelope(document)
    envelope.read_by = "scanner"
    return envelope


def decode_response_envelope(document: str | bytes) -> Envelope:
    """The client reader: the whole document, headers skipped unexpanded
    (no client reads one), each RPC response a :class:`DecodedEntry`."""
    envelope = Envelope()
    try:
        envelope.body_entries = list(walk_envelope(document, None, _read_response))
    except Exception:  # anything unusual: the tree source says what
        return Envelope.parse(document)
    envelope.read_by = "scanner"
    return envelope


def _read_pack(decoded, suffix: str = ""):
    """A body-entry reader into ``decoded``, a pack's entries read in one match where they can."""

    def read_entry(cursor: XmlScanner, start) -> Element:
        if not start.name.endswith(suffix):
            return cursor.read_element(start)  # a Fault or an spi:Accepted
        return decoded(*cursor.read_values(start, value_rule))

    def read(cursor: XmlScanner, start) -> Element:
        if start.name.rpartition(":")[2] != "Parallel_Method":
            return read_entry(cursor, start)
        pack = cursor.enter(start)
        if pack.tag != PARALLEL_METHOD:
            raise Unusual("a Parallel_Method outside the SPI namespace")
        while (entry := cursor.next_entry(value_rule, suffix) or cursor.next_child(only_elements=True)):
            pack.children.append(decoded(*entry) if type(entry) is tuple else read_entry(cursor, entry))
        return pack

    return read


def _response(tag: str, attributes: tuple, pairs: list, nsmap=None) -> DecodedEntry:
    if len(pairs) != 1 or pairs[0][0] != RETURN_TAG:
        raise Unusual("not exactly one <return>")
    qname = QName.parse(tag)
    response = RpcResponse(qname.uri, qname.local[: -len(RESPONSE_SUFFIX)], pairs[0][1])
    return DecodedEntry(tag, attributes, response, nsmap)


def _request(tag: str, attributes: tuple, pairs: list, nsmap=None) -> DecodedEntry:
    params = dict(pairs)
    if len(params) != len(pairs):
        raise Unusual("a duplicate parameter")
    qname = QName.parse(tag)
    return DecodedEntry(tag, attributes, RpcRequest(qname.uri, qname.local, params), nsmap)


_read_request = _read_pack(_request)
_read_response = _read_pack(_response, RESPONSE_SUFFIX)
