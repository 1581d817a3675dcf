"""Namespace URIs and wire constants for SOAP 1.1 and the SPI extension."""

from __future__ import annotations

# SOAP 1.1 (the version Axis 1.3 / gSOAP 2.7 speak, as in the paper)
SOAP_ENV_NS = "http://schemas.xmlsoap.org/soap/envelope/"
SOAP_ENC_NS = "http://schemas.xmlsoap.org/soap/encoding/"

# XML Schema
XSD_NS = "http://www.w3.org/2001/XMLSchema"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"

# WSDL 1.1
WSDL_NS = "http://schemas.xmlsoap.org/wsdl/"
WSDL_SOAP_NS = "http://schemas.xmlsoap.org/wsdl/soap/"

# WS-Security (OASIS WSS 1.0) + utility namespace
WSSE_NS = (
    "http://docs.oasis-open.org/wss/2004/01/oasis-200401-wss-wssecurity-secext-1.0.xsd"
)
WSU_NS = (
    "http://docs.oasis-open.org/wss/2004/01/oasis-200401-wss-wssecurity-utility-1.0.xsd"
)

# SPI: the paper's SOAP Passing Interface extension namespace.  The
# Parallel_Method element of Figure 4 lives here.
SPI_NS = "urn:spi:soap-passing-interface"
PARALLEL_METHOD = f"{{{SPI_NS}}}Parallel_Method"
REQUEST_ID_ATTR = "requestID"
# a one-way (fire-and-forget) request entry, and what the server answers it
ONE_WAY_ATTR = f"{{{SPI_NS}}}oneWay"
ACCEPTED_TAG = f"{{{SPI_NS}}}Accepted"

# Clark-notation names used throughout the engine
ENVELOPE_TAG = f"{{{SOAP_ENV_NS}}}Envelope"
HEADER_TAG = f"{{{SOAP_ENV_NS}}}Header"
BODY_TAG = f"{{{SOAP_ENV_NS}}}Body"
FAULT_TAG = f"{{{SOAP_ENV_NS}}}Fault"
MUST_UNDERSTAND_ATTR = f"{{{SOAP_ENV_NS}}}mustUnderstand"

XSI_TYPE_ATTR = f"{{{XSI_NS}}}type"
XSI_NIL_ATTR = f"{{{XSI_NS}}}nil"

# Canonical prefixes used when serializing (cosmetic only)
STANDARD_NSMAP = {
    "SOAP-ENV": SOAP_ENV_NS,
    "xsd": XSD_NS,
    "xsi": XSI_NS,
}

# HTTP binding
SOAP_CONTENT_TYPE = "text/xml; charset=utf-8"
SOAP_ACTION_HEADER = "SOAPAction"

# Standard SOAP 1.1 fault codes (in the envelope namespace)
FAULT_VERSION_MISMATCH = "VersionMismatch"
FAULT_MUST_UNDERSTAND = "MustUnderstand"
FAULT_CLIENT = "Client"
FAULT_SERVER = "Server"

# Resilience subcodes of Server (canonical taxonomy in repro.errors,
# alongside is_retryable_faultcode; re-exported here as wire constants).
from repro.errors import (  # noqa: E402
    FAULTCODE_SERVER_BUSY as FAULT_SERVER_BUSY,
    FAULTCODE_SERVER_TIMEOUT as FAULT_SERVER_TIMEOUT,
)
