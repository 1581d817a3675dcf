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

The wire names and the server's two primitives (``is_one_way``,
``accepted_response``) live in :mod:`repro.soap`, below the server that
uses them; they are re-exported here.
"""

from __future__ import annotations

from repro.soap.constants import ACCEPTED_TAG, ONE_WAY_ATTR
from repro.soap.serializer import accepted_response, is_one_way
from repro.xmlcore.tree import Element

__all__ = [
    "ACCEPTED_TAG", "ONE_WAY_ATTR", "accepted_response", "is_accepted", "is_one_way", "mark_one_way",
]


def mark_one_way(entry: Element) -> Element:
    """Flag a request entry as fire-and-forget."""
    entry.set(ONE_WAY_ATTR, "true")
    return entry


def is_accepted(element: Element) -> bool:
    """True for an spi:Accepted acknowledgement element."""
    return element.tag == ACCEPTED_TAG
