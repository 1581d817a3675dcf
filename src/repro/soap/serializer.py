"""RPC-style SOAP serialization (requests, responses, faults, one-way acks).

Builds the per-operation body entries that the common architecture
sends one-per-message and that SPI's assembler packs several-per-message.
An RPC entry's values are rendered to markup when it is encoded, so an
error is raised there and the bytes sent are the values as they were
then; a tree exists only for a reader of its children.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import SerializationError
from repro.soap.constants import ACCEPTED_TAG, ONE_WAY_ATTR, REQUEST_ID_ATTR, SPI_NS, XSI_NS
from repro.soap.envelope import Envelope
from repro.soap.fault import SoapFault
from repro.soap.xsdtypes import parse_values, render_value
from repro.xmlcore.qname import QName, is_ncname, qname_of
from repro.xmlcore.tree import Element

RESPONSE_SUFFIX = "Response"
RETURN_TAG = "return"


class EncodedEntry(Element):
    """A body entry as encoded: its tag, attributes (``requestID``,
    ``spi:oneWay``) and the markup ``parts`` the writer splices wherever
    ``bindings`` hold.  Reading ``children`` parses the parts; from then
    on that tree is what is written."""

    __slots__ = ("parts", "_tree")
    bindings = (("xsi", XSI_NS),)  # what the parts' prefixes mean

    def __init__(self, tag: str, parts: list[str], attributes: tuple = ()) -> None:
        self.tag = tag
        self._attrs = attributes
        self.nsmap = {}
        self.parts = parts

    @property
    def children(self) -> list:
        if self.parts is not None:
            self._tree, self.parts = parse_values(self.parts), None
        return self._tree


def serialize_rpc_request(
    namespace: str, operation: str, params: Mapping[str, Any], attributes: tuple = ()
) -> EncodedEntry:
    """Encode the body entry ``<ns:operation><param .../>...</ns:operation>``
    with ``attributes`` (``(name, value)`` pairs) on its start tag.

    Parameter order follows the mapping's iteration order, matching the
    positional convention of RPC/encoded SOAP.
    """
    _check_operation_name(operation)
    entry = EncodedEntry(qname_of(namespace, operation).clark, [], attributes)
    for name, value in params.items():
        if not is_ncname(name):
            raise SerializationError(f"'{name}' is not a valid parameter name")
        render_value(entry.parts, name, value)
    return entry


def serialize_rpc_response(namespace: str, operation: str, result: Any) -> EncodedEntry:
    """Encode ``<ns:operationResponse><return .../></ns:operationResponse>``."""
    _check_operation_name(operation)
    entry = EncodedEntry(qname_of(namespace, operation + RESPONSE_SUFFIX).clark, [])
    render_value(entry.parts, RETURN_TAG, result)
    return entry


def is_one_way(entry: Element) -> bool:
    """True when the entry carries spi:oneWay='true'."""
    return entry.get(ONE_WAY_ATTR) == "true"


def accepted_response(entry: Element) -> Element:
    """The acknowledgement element for a one-way request entry."""
    request_id = entry.get(REQUEST_ID_ATTR)
    attributes = () if request_id is None else ((REQUEST_ID_ATTR, request_id),)
    return Element(ACCEPTED_TAG, attributes, nsmap={"spi": SPI_NS})


def collect_entry_namespaces(
    entries: "list[Element]", *, skip: tuple[str, ...] = ()
) -> list[str]:
    """Distinct non-empty entry-root namespace URIs, first-seen order.

    The pack builder hoists these onto the ``Parallel_Method`` wrapper
    so the writer declares each method namespace once per pack instead
    of once per entry.
    """
    seen: list[str] = []
    for tag in dict.fromkeys([entry.tag for entry in entries]):  # each split once
        uri = QName.parse(tag).uri
        if uri and uri not in skip and uri not in seen:
            seen.append(uri)
    return seen


def build_request_envelope(
    namespace: str,
    operation: str,
    params: Mapping[str, Any],
    *,
    headers: list[Element] | None = None,
) -> Envelope:
    """Request body entry wrapped in a full envelope (plus headers)."""
    return _envelope(serialize_rpc_request(namespace, operation, params), headers)


def build_response_envelope(
    namespace: str,
    operation: str,
    result: Any,
    *,
    headers: list[Element] | None = None,
) -> Envelope:
    """Response body entry wrapped in a full envelope (plus headers)."""
    return _envelope(serialize_rpc_response(namespace, operation, result), headers)


def build_fault_envelope(fault: SoapFault) -> Envelope:
    """A fault as the sole body entry of a fresh envelope."""
    return _envelope(fault.to_element(), None)


def _envelope(entry: Element, headers: list[Element] | None) -> Envelope:
    envelope = Envelope()
    for header in headers or []:
        envelope.add_header(header)
    envelope.add_body(entry)
    return envelope


def _check_operation_name(operation: str) -> None:
    if not is_ncname(operation):
        raise SerializationError(f"'{operation}' is not a valid operation name")
