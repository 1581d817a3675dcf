"""Deadline propagation: the ``<res:Deadline>`` SOAP header.

The client computes how much whole-call budget remains just before a
send and writes it into the envelope as *relative* milliseconds::

    <res:Deadline xmlns:res="urn:repro:resilience" remainingMs="750"/>

Relative, not absolute, because client and server clocks are not
synchronized; the server rebases the budget onto its own monotonic
clock at parse time.  The header rides with ``mustUnderstand`` unset
(= false) so servers without the resilience layer keep accepting the
message untouched — exactly the trace-header contract.

Entries that would start executing after the rebased deadline are
skipped with a ``Server.Timeout`` fault in their response slot; in a
pack this yields partial success (sibling entries that made it in time
still return results).
"""

from __future__ import annotations

from repro.resilience.policy import Deadline
from repro.soap.envelope import Envelope
from repro.xmlcore.tree import Element

RESILIENCE_NS = "urn:repro:resilience"
DEADLINE_HEADER_TAG = f"{{{RESILIENCE_NS}}}Deadline"
REMAINING_MS_ATTR = "remainingMs"

#: Wire-level grace on top of the logical attempt budget.  The server
#: enforces the propagated deadline itself and answers AT it (rendering
#: per-entry timeout faults), so the socket timeout must outlive the
#: budget slightly — a wire timeout equal to the budget would cut the
#: connection just as the server's deadline fault is being written.
IO_GRACE_FRACTION = 0.25
IO_GRACE_FLOOR_S = 0.05

# Budgets below one millisecond still propagate as 1 ms rather than 0:
# a zero would be indistinguishable from "header absent" on some peers.
_MIN_REMAINING_MS = 1


def deadline_header(remaining_s: float) -> Element:
    """Build the header element for ``remaining_s`` seconds of budget."""
    remaining_ms = max(_MIN_REMAINING_MS, int(remaining_s * 1000.0))
    return Element(
        DEADLINE_HEADER_TAG,
        {REMAINING_MS_ATTR: str(remaining_ms)},
        nsmap={"res": RESILIENCE_NS},
    )


def attach_deadline(envelope: Envelope, remaining_s: float) -> Element:
    """Attach (or refresh) the deadline header on ``envelope``.

    Refreshing matters on retries: the surviving budget shrinks between
    attempts and the header must say so.
    """
    header = envelope.find_header(DEADLINE_HEADER_TAG)
    if header is not None:
        remaining_ms = max(_MIN_REMAINING_MS, int(remaining_s * 1000.0))
        header.set(REMAINING_MS_ATTR, str(remaining_ms))
        return header
    header = deadline_header(remaining_s)
    envelope.add_header(header)
    return header


def wire_timeout(budget: float | None) -> float | None:
    """The channel I/O timeout for one attempt with ``budget`` seconds
    of logical deadline left: the budget plus a grace margin."""
    if budget is None:
        return None
    return budget + max(budget * IO_GRACE_FRACTION, IO_GRACE_FLOOR_S)


def extract_deadline(envelope: Envelope) -> Deadline | None:
    """The request's deadline rebased onto this process's monotonic
    clock, or None when the header is absent or malformed (a garbled
    budget must not fault an otherwise-valid request)."""
    header = envelope.find_header(DEADLINE_HEADER_TAG)
    if header is None:
        return None
    raw = header.get(REMAINING_MS_ATTR)
    try:
        remaining_ms = int(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    if remaining_ms < 0:
        remaining_ms = 0
    return Deadline(remaining_ms / 1000.0)
