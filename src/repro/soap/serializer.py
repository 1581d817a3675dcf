"""RPC-style SOAP serialization (requests, responses, faults).

Builds the per-operation body entries that the common architecture
sends one-per-message and that SPI's assembler packs several-per-message.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import SerializationError
from repro.soap.envelope import Envelope
from repro.soap.fault import SoapFault
from repro.soap.xsdtypes import encode_value
from repro.xmlcore.qname import is_ncname, qname_of
from repro.xmlcore.tree import Element, new_element

RESPONSE_SUFFIX = "Response"
RETURN_TAG = "return"


def serialize_rpc_request(
    namespace: str, operation: str, params: Mapping[str, Any]
) -> Element:
    """Build the body entry ``<ns:operation><param .../>...</ns:operation>``.

    Parameter order follows the mapping's iteration order, matching the
    positional convention of RPC/encoded SOAP.
    """
    _check_operation_name(operation)
    encoded = []
    for name, value in params.items():
        if not is_ncname(name):
            raise SerializationError(f"'{name}' is not a valid parameter name")
        encoded.append(encode_value(name, value))
    return new_element(qname_of(namespace, operation).clark, (), encoded)


def serialize_rpc_response(namespace: str, operation: str, result: Any) -> Element:
    """Build ``<ns:operationResponse><return .../></ns:operationResponse>``."""
    _check_operation_name(operation)
    tag = qname_of(namespace, operation + RESPONSE_SUFFIX).clark
    return new_element(tag, (), [encode_value(RETURN_TAG, result)])


def collect_entry_namespaces(
    entries: "list[Element]", *, skip: tuple[str, ...] = ()
) -> list[str]:
    """Distinct non-empty entry-root namespace URIs, first-seen order.

    The pack builder hoists these onto the ``Parallel_Method`` wrapper
    so the writer declares each method namespace once per pack instead
    of once per entry.
    """
    seen: list[str] = []
    for entry in entries:
        uri = entry.qname.uri
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
    envelope = Envelope()
    for header in headers or []:
        envelope.add_header(header)
    envelope.add_body(serialize_rpc_request(namespace, operation, params))
    return envelope


def build_response_envelope(
    namespace: str,
    operation: str,
    result: Any,
    *,
    headers: list[Element] | None = None,
) -> Envelope:
    """Response body entry wrapped in a full envelope (plus headers)."""
    envelope = Envelope()
    for header in headers or []:
        envelope.add_header(header)
    envelope.add_body(serialize_rpc_response(namespace, operation, result))
    return envelope


def build_fault_envelope(fault: SoapFault) -> Envelope:
    """A fault as the sole body entry of a fresh envelope."""
    envelope = Envelope()
    envelope.add_body(fault.to_element())
    return envelope


def _check_operation_name(operation: str) -> None:
    if not is_ncname(operation):
        raise SerializationError(f"'{operation}' is not a valid operation name")
