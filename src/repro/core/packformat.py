"""The SPI pack wire format: the ``Parallel_Method`` element of Figure 4.

One SOAP Body entry ``<spi:Parallel_Method>`` whose children are the
individual RPC request (or response) elements.  Each child carries a
``requestID`` attribute so responses can be correlated even if the
server's application stage completes them out of order.

Figure 4 of the paper shows exactly this shape for two packed
``GetWeather`` requests; ``examples/weather_pack.py`` regenerates it.
"""

from __future__ import annotations

from repro.errors import PackError
from repro.soap.constants import PARALLEL_METHOD, REQUEST_ID_ATTR, SPI_NS
from repro.soap.deserializer import DecodedEntry
from repro.soap.serializer import collect_entry_namespaces
from repro.xmlcore.tree import Element

MAX_PACKED_REQUESTS = 4096


def request_id(index: int) -> str:
    """The canonical sequential requestID for queue position ``index``."""
    return f"r{index}"


def build_parallel_method(
    entries: list[Element], *, assign_ids: bool = True
) -> Element:
    """Wrap ``entries`` into one Parallel_Method element.

    With ``assign_ids`` (the client assembler path) children receive
    sequential ``requestID`` attributes; without it (the server
    assembler path) children are expected to already carry the id
    copied from their request.
    """
    if not entries:
        raise PackError("cannot pack an empty batch")
    if len(entries) > MAX_PACKED_REQUESTS:
        raise PackError(
            f"batch of {len(entries)} exceeds the {MAX_PACKED_REQUESTS}-request limit"
        )
    # Hoist the method namespaces: declaring each distinct entry-root
    # URI once on the wrapper lets the writer render every entry tag
    # from the already-in-scope prefix instead of redeclaring it per
    # entry — M-1 fewer xmlns attributes per pack.
    nsmap = {"spi": SPI_NS}
    for index, uri in enumerate(collect_entry_namespaces(entries, skip=(SPI_NS,))):
        nsmap[f"m{index}"] = uri
    wrapper = Element(PARALLEL_METHOD, nsmap=nsmap)
    if assign_ids:
        for index, entry in enumerate(entries):
            entry.set(REQUEST_ID_ATTR, request_id(index))
    wrapper.children = list(entries)
    return wrapper


def is_parallel_method(element: Element) -> bool:
    """True for an spi:Parallel_Method element."""
    return element.tag == PARALLEL_METHOD


def unpack_parallel_method(element: Element) -> list[Element]:
    """Validate and explode a Parallel_Method into its entries.

    Raises :class:`PackError` on structural violations: wrong element,
    empty pack, non-element content, or missing/duplicate request ids.
    """
    if not is_parallel_method(element):
        raise PackError(f"<{element.tag}> is not a Parallel_Method element")
    entries = element.element_children()
    if not entries:
        raise PackError("Parallel_Method contains no requests")
    if any(isinstance(child, str) and child.strip() for child in element.children):
        raise PackError("Parallel_Method contains stray character data")
    seen: set[str] = set()
    for entry in entries:
        rid = entry_request_id(entry)
        if rid is None:
            raise PackError(f"packed entry <{entry.local_name}> has no requestID")
        if rid in seen:
            raise PackError(f"duplicate requestID '{rid}' in Parallel_Method")
        seen.add(rid)
    return entries


def entry_request_id(entry: Element) -> str | None:
    """The ``requestID`` of a packed entry: a record's, read when it was
    decoded, or a tree's attribute."""
    return entry.request_id if type(entry) is DecodedEntry else entry.get(REQUEST_ID_ATTR)
