"""SOAP 1.1 engine: envelopes, typed values, RPC codecs, WS-Security.

Layered directly on :mod:`repro.xmlcore`; used by both the client and
the server.  The SPI pack format in
:mod:`repro.core.packformat` builds on the RPC codecs defined here.
"""

from repro.soap.constants import (
    BODY_TAG,
    ENVELOPE_TAG,
    FAULT_TAG,
    HEADER_TAG,
    PARALLEL_METHOD,
    SOAP_ENV_NS,
    SPI_NS,
)
from repro.soap.deserializer import (
    OperationMatcher,
    RpcRequest,
    RpcResponse,
    parse_response_envelope,
    parse_rpc_request,
    parse_rpc_response,
)
from repro.soap.envelope import Envelope
from repro.soap.fault import (
    ClientFaultCause,
    SoapFault,
    busy_fault,
    fault_code_of,
    timeout_fault,
)
from repro.soap.serializer import (
    build_fault_envelope,
    build_request_envelope,
    build_response_envelope,
    serialize_rpc_request,
    serialize_rpc_response,
)
from repro.soap.wssecurity import (
    Credentials,
    attach_security_header,
    verify_security_header,
)
from repro.soap.xsdtypes import decode_value, encode_value

__all__ = [
    "BODY_TAG",
    "ClientFaultCause",
    "Credentials",
    "ENVELOPE_TAG",
    "Envelope",
    "FAULT_TAG",
    "HEADER_TAG",
    "OperationMatcher",
    "PARALLEL_METHOD",
    "RpcRequest",
    "RpcResponse",
    "SOAP_ENV_NS",
    "SPI_NS",
    "SoapFault",
    "attach_security_header",
    "build_fault_envelope",
    "busy_fault",
    "fault_code_of",
    "timeout_fault",
    "build_request_envelope",
    "build_response_envelope",
    "decode_value",
    "encode_value",
    "parse_response_envelope",
    "parse_rpc_request",
    "parse_rpc_response",
    "serialize_rpc_request",
    "serialize_rpc_response",
    "verify_security_header",
]
