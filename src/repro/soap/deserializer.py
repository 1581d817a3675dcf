"""RPC-style SOAP deserialization, from two sources.

The tree source decodes ``Element`` entries.  The scanner source decodes
a document's RPC entries straight off the scanner's value walk into
:class:`DecodedEntry` records, with no tree below their tags.  Anything
the walk does not read (see ``XmlScanner.read_values``), a duplicate
parameter or a response that is not one ``<return>`` restarts the
document on the tree source, so every error is the tree source's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Container

from repro.errors import SoapError
from repro.soap.constants import FAULT_TAG, ONE_WAY_ATTR, PARALLEL_METHOD, REQUEST_ID_ATTR
from repro.soap.envelope import Envelope, walk_envelope
from repro.soap.fault import ClientFaultCause, SoapFault
from repro.soap.multiref import resolve_multirefs
from repro.soap.serializer import RESPONSE_SUFFIX, RETURN_TAG
from repro.soap.xsdtypes import decode_value, value_rule
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
    """A body entry decoded off the scanner: the one record an entry is
    carried in from the reader to the writer.  Its tag and attributes, the
    ``requestID`` and one-way flag read from them once, what its children
    held (``decoded``: a request's params, a response's value) and, on a
    server, the deployed ``operation`` it names (None until looked up, or
    when nobody deployed it).  A tree entry the server runs gets a record
    whose ``source`` is that tree.  Reading a record's children raises."""

    __slots__ = ("request_id", "one_way", "decoded", "operation", "source")

    def __init__(self, tag: str, attributes: tuple, decoded: Any, nsmap=None) -> None:
        self.tag = tag
        self._attrs = attributes
        self.nsmap = nsmap or {}
        self.decoded = decoded
        self.operation = self.source = None
        request_id, one_way = None, False
        for name, value in attributes:
            if name == REQUEST_ID_ATTR:
                request_id = value
            elif name == ONE_WAY_ATTR:
                one_way = value == "true"
        self.request_id = request_id
        self.one_way = one_way

    @property
    def children(self) -> list:
        raise SoapError(f"<{self.local_name}> was decoded off the scanner; it has no children")


def parse_rpc_request(element: Element, operations: Container[str] | None = None) -> RpcRequest:
    """Decode one request body entry.

    When ``operations`` (the Clark tags deployed) is given, unknown
    operations raise :class:`ClientFaultCause` so the endpoint can
    return a Client fault.
    """
    qname = element.qname  # the entry's tag, split once
    if operations is not None and element.tag not in operations:
        raise ClientFaultCause(f"no such operation '{qname.local}'")
    if type(element) is DecodedEntry:
        return RpcRequest(qname.uri, qname.local, element.decoded)
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
    if type(element) is DecodedEntry:
        return RpcResponse(qname.uri, local[: -len(RESPONSE_SUFFIX)], element.decoded)
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
        entries = pack.children
        while True:
            cursor.next_entry(value_rule, decoded, entries, suffix)
            if (start := cursor.next_child(only_elements=True)) is None:
                return pack
            entries.append(read_entry(cursor, start))

    return read


def _response(tag: str, attributes: tuple, pairs: list, nsmap=None) -> DecodedEntry:
    if len(pairs) != 1 or pairs[0][0] != RETURN_TAG:
        raise Unusual("not exactly one <return>")
    return DecodedEntry(tag, attributes, pairs[0][1], nsmap)


def _request(tag: str, attributes: tuple, pairs: list, nsmap=None) -> DecodedEntry:
    params = dict(pairs)
    if len(params) != len(pairs):
        raise Unusual("a duplicate parameter")
    return DecodedEntry(tag, attributes, params, nsmap)


_read_request = _read_pack(_request)
_read_response = _read_pack(_response, RESPONSE_SUFFIX)
