"""SOAP 1.1 Fault model and its exception mapping.

This is the *canonical* fault model: :class:`SoapFault` is the
element-side representation, :class:`~repro.errors.SoapFaultError` the
exception-side one, and the two round-trip losslessly
(``to_element``/``from_element`` and ``to_exception``/
``from_exception``/``SoapFaultError.as_fault``).  Both share the
faultcode taxonomy in :mod:`repro.errors` — in particular the
retryable ``Server.Timeout`` / ``Server.Busy`` subcodes minted by the
resilience layer — so client retry policy and server shed/deadline
logic agree on which faults promise "the work did not run".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SoapError, SoapFaultError, is_retryable_faultcode
from repro.soap.constants import (
    FAULT_CLIENT,
    FAULT_SERVER,
    FAULT_SERVER_BUSY,
    FAULT_SERVER_TIMEOUT,
    FAULT_TAG,
    SOAP_ENV_NS,
)
from repro.xmlcore.tree import Element


@dataclass(slots=True)
class SoapFault:
    """A SOAP <Fault>: code, human-readable string, optional actor/detail.

    ``faultcode`` holds the *local* code (``Client``, ``Server``,
    ``Server.Busy``, ...); serialization qualifies it with the
    envelope-namespace prefix as SOAP 1.1 requires.
    """

    faultcode: str
    faultstring: str
    faultactor: str | None = None
    detail: str | None = None

    def is_retryable(self) -> bool:
        """True when the faultcode guarantees the operation did not run,
        so a client may retry without risking double execution."""
        return is_retryable_faultcode(self.faultcode)

    def to_element(self) -> Element:
        """Render as a SOAP 1.1 <Fault> element."""
        fault = Element(FAULT_TAG)
        # SOAP 1.1: faultcode/faultstring are UNqualified child elements
        # whose faultcode VALUE is a QName in the envelope namespace.
        fault.subelement("faultcode", text=f"SOAP-ENV:{self.faultcode}")
        fault.subelement("faultstring", text=self.faultstring)
        if self.faultactor is not None:
            fault.subelement("faultactor", text=self.faultactor)
        if self.detail is not None:
            detail = fault.subelement("detail")
            detail.subelement("message", text=self.detail)
        return fault

    @classmethod
    def from_element(cls, element: Element) -> "SoapFault":
        if element.tag != FAULT_TAG:
            raise SoapError(f"expected <Fault>, got <{element.tag}>")
        code = element.findtext("faultcode", "") or ""
        _, _, local_code = code.rpartition(":")
        faultstring = element.findtext("faultstring", "") or ""
        actor = element.findtext("faultactor")
        detail_el = element.find("detail")
        detail = None
        if detail_el is not None:
            message = detail_el.find("message")
            detail = message.text if message is not None else detail_el.full_text()
        return cls(local_code, faultstring, actor, detail)

    def to_exception(self) -> SoapFaultError:
        """The client-side exception carrying this fault."""
        return SoapFaultError(
            self.faultcode, self.faultstring, self.detail, faultactor=self.faultactor
        )

    @classmethod
    def from_exception(cls, exc: BaseException) -> "SoapFault":
        """Map a server-side exception onto a fault.

        Library errors marked as caller mistakes become ``Client``
        faults; shed/deadline errors become their retryable ``Server.*``
        subcode; everything else is a ``Server`` fault, carrying the
        exception text in <detail> the way Axis does.
        """
        from repro.errors import DeadlineExpiredError, PoolSaturatedError, ServerBusyError

        if isinstance(exc, SoapFaultError):
            return cls(exc.faultcode, exc.faultstring, exc.faultactor, exc.detail)
        if isinstance(exc, (ServerBusyError, PoolSaturatedError)):
            code = FAULT_SERVER_BUSY
        elif isinstance(exc, DeadlineExpiredError):
            code = FAULT_SERVER_TIMEOUT
        elif isinstance(exc, ClientFaultCause):
            code = FAULT_CLIENT
        else:
            code = FAULT_SERVER
        return cls(code, f"{type(exc).__name__}: {exc}", detail=str(exc) or None)


def busy_fault(reason: str) -> SoapFault:
    """The shed-point fault: ``Server.Busy``, retryable by contract."""
    return SoapFault(FAULT_SERVER_BUSY, reason)


def timeout_fault(reason: str) -> SoapFault:
    """The deadline-expiry fault: ``Server.Timeout``, retryable by
    contract (the entry was skipped, not executed)."""
    return SoapFault(FAULT_SERVER_TIMEOUT, reason)


class ClientFaultCause(SoapError):
    """Server-side errors attributable to the request (bad operation
    name, undecodable parameters); mapped to faultcode=Client."""


def is_fault_body(body: Element) -> bool:
    """True when a SOAP Body's first child is a Fault."""
    children = body.element_children()
    return bool(children) and children[0].tag == FAULT_TAG


def fault_code_of(element: Element) -> str | None:
    """The *local* faultcode of a <Fault> element, or None for other
    elements — the cheap check response paths use to classify per-entry
    fault slots without building a SoapFault."""
    if element.tag != FAULT_TAG:
        return None
    code = element.findtext("faultcode", "") or ""
    _, _, local = code.rpartition(":")
    return local


__all__ = [
    "SoapFault",
    "SoapFaultError",
    "ClientFaultCause",
    "busy_fault",
    "timeout_fault",
    "is_fault_body",
    "fault_code_of",
    "SOAP_ENV_NS",
]
