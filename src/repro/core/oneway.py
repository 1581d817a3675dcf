"""One-way (fire-and-forget) invocations — the SPI interface suite,
continued.

SPI "provides interfaces like packing, remote execution **and so on**"
(§1); one-way messaging is the natural third member: a client marks a
request ``spi:oneWay="true"`` and receives an immediate
``spi:Accepted`` acknowledgement instead of a result.  On the staged
architecture the acknowledged work runs on the application stage
*after* the response has been sent, so a burst of notifications costs
the client a single round trip regardless of how long the operations
take.

Semantics: "accepted", not "completed" — a one-way operation's result
(or failure) is discarded server-side; callers that need the outcome
use a normal call.  One-way entries compose with packing: a batch may
mix waited calls (:meth:`~repro.core.batch.PackBatch.call`) and casts
(:meth:`~repro.core.batch.PackBatch.cast`).
"""

from __future__ import annotations

from repro.soap.constants import REQUEST_ID_ATTR, SPI_NS
from repro.xmlcore.tree import Element

ONE_WAY_ATTR = f"{{{SPI_NS}}}oneWay"
ACCEPTED_TAG = f"{{{SPI_NS}}}Accepted"


def mark_one_way(entry: Element) -> Element:
    """Flag a request entry as fire-and-forget."""
    entry.set(ONE_WAY_ATTR, "true")
    return entry


def is_one_way(entry: Element) -> bool:
    """True when the entry carries spi:oneWay='true'."""
    return entry.get(ONE_WAY_ATTR) == "true"


def accepted_response(entry: Element) -> Element:
    """The acknowledgement element for a one-way request entry."""
    response = Element(ACCEPTED_TAG, nsmap={"spi": SPI_NS})
    request_id = entry.get(REQUEST_ID_ATTR)
    if request_id is not None:
        response.set(REQUEST_ID_ATTR, request_id)
    return response


def is_accepted(element: Element) -> bool:
    """True for an spi:Accepted acknowledgement element."""
    return element.tag == ACCEPTED_TAG
