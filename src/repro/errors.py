"""Exception hierarchy shared by every repro subsystem.

Each layer raises its own subclass so callers can catch at the right
granularity: ``XmlError`` for malformed XML, ``SoapFaultError`` for
protocol-level SOAP faults, ``HttpError`` for transport framing problems,
and so on.  Everything derives from :class:`ReproError`.

This module also owns the *faultcode taxonomy* — which SOAP 1.1 fault
codes this stack emits and which of them a client may safely retry.
It lives here (and not in ``repro.soap``) because both sides need it
below the SOAP layer: the server's shed/deadline machinery mints the
codes and the client's :class:`~repro.resilience.CallPolicy` consults
:func:`is_retryable_faultcode` before spending retry budget.
"""

from __future__ import annotations

# Dot-separated SOAP 1.1 subcodes of the standard ``Server`` code.
# ``Server.Timeout``: the request's propagated deadline expired before
# (or while) the entry executed — the work was *not* done.
# ``Server.Busy``: the server shed the request at a bounded queue —
# the work was not even attempted.  Both are safe to retry because the
# server guarantees the operation did not run to completion.
FAULTCODE_SERVER_TIMEOUT = "Server.Timeout"
FAULTCODE_SERVER_BUSY = "Server.Busy"

# The one faultcode table: local faultcode -> (fault class, HTTP status
# of a whole-message fault).  The class is the resilience-counter and
# trace-flag taxonomy; a code not listed is ``fatal`` and keeps the SOAP 1.1
# default status of 500.  Every listed code is retryable.
FAULTCODE_TABLE: dict[str, tuple[str, int]] = {
    FAULTCODE_SERVER_BUSY: ("shed", 503),
    FAULTCODE_SERVER_TIMEOUT: ("timeout", 504),
}

RETRYABLE_FAULTCODES: frozenset[str] = frozenset(FAULTCODE_TABLE)


def is_retryable_faultcode(faultcode: str) -> bool:
    """True when a faultcode promises the operation did not execute.

    Accepts both local (``Server.Busy``) and prefixed
    (``SOAP-ENV:Server.Busy``) spellings, as faults cross the wire with
    an envelope-namespace prefix.
    """
    _, _, local = faultcode.rpartition(":")
    return local in RETRYABLE_FAULTCODES


def fault_class_of(faultcode: str) -> str:
    """``shed`` / ``timeout`` / ``fatal`` for a local or prefixed
    faultcode — what the server's ``resilience.*`` counters and trace
    flags key on."""
    _, _, local = faultcode.rpartition(":")
    row = FAULTCODE_TABLE.get(local)
    return row[0] if row is not None else "fatal"


# A bare HTTP status (no fault body survived) classifies like the
# faultcode the endpoint sends it for.
_STATUS_FAULT_CLASSES: dict[int, str] = {
    status: cls for cls, status in FAULTCODE_TABLE.values()
}


def fault_class_of_status(status: int | None) -> str:
    """``shed`` / ``timeout`` / ``fatal`` for an HTTP error status — the
    one reader of fault class by status (the span store's trace flags)."""
    return _STATUS_FAULT_CLASSES.get(status, "fatal")


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class XmlError(ReproError):
    """Malformed XML input or an illegal XML construction request."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class XmlWellFormednessError(XmlError):
    """The document violates XML well-formedness rules."""


class XmlNamespaceError(XmlError):
    """Undeclared prefix or other namespace violation."""


class SoapError(ReproError):
    """Problem constructing or interpreting a SOAP message."""


class SoapFaultError(SoapError):
    """A SOAP <Fault> surfaced as an exception — the canonical fault
    model's exception half.

    :meth:`as_fault` / :class:`repro.soap.fault.SoapFault.to_exception`
    round-trip every field (code, string, actor, detail), so a fault can
    cross layer boundaries as an element, an exception, or back without
    losing information.
    """

    def __init__(
        self,
        faultcode: str,
        faultstring: str,
        detail: str | None = None,
        *,
        faultactor: str | None = None,
    ):
        self.faultcode = faultcode
        self.faultstring = faultstring
        self.detail = detail
        self.faultactor = faultactor
        super().__init__(f"{faultcode}: {faultstring}")

    def is_retryable(self) -> bool:
        """True when the faultcode guarantees the operation did not run
        (``Server.Busy``, ``Server.Timeout``), so a retry cannot double-
        execute it."""
        return is_retryable_faultcode(self.faultcode)

    def as_fault(self):
        """This error as the element-side model
        (:class:`repro.soap.fault.SoapFault`)."""
        from repro.soap.fault import SoapFault

        return SoapFault(self.faultcode, self.faultstring, self.faultactor, self.detail)


class ServerBusyError(SoapError):
    """Server-side overload signal: a bounded stage/pool queue was full
    and the request was shed.  Mapped to a ``Server.Busy`` fault and
    HTTP 503 at the endpoint."""


class DeadlineExpiredError(SoapError):
    """A propagated request deadline expired before the work ran.
    Mapped to a ``Server.Timeout`` fault."""


class SerializationError(SoapError):
    """A Python value could not be encoded to (or decoded from) XML."""


class WsdlError(ReproError):
    """Malformed or unsupported WSDL document."""


class HttpError(ReproError):
    """HTTP framing or protocol violation."""

    def __init__(self, message: str, status: int | None = None):
        self.status = status
        super().__init__(message)


class TransportError(ReproError):
    """Connection-level failure (refused, reset, closed mid-message)."""


class ServiceError(ReproError):
    """Service registration or dispatch problem on the server."""


class PoolSaturatedError(ServiceError):
    """A bounded thread-pool/stage queue refused a task (shed point)."""


class InvocationError(ReproError):
    """Client-side invocation failure that is not a SOAP fault."""


class PackError(ReproError):
    """SPI pack-interface violation (bad Parallel_Method payload, mixed
    endpoints in one batch, duplicate request ids, ...)."""


class SecurityError(SoapError):
    """WS-Security header verification failure."""

