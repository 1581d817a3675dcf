"""SOAP 1.1 Envelope model.

An :class:`Envelope` owns an optional list of header entries and a body
with one or more entries (one, in the classic architecture of the
paper's Figure 1; several packed under ``Parallel_Method`` with SPI).
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import SoapError
from repro.soap.constants import (
    BODY_TAG,
    ENVELOPE_TAG,
    HEADER_TAG,
    MUST_UNDERSTAND_ATTR,
    SOAP_ENV_NS,
    STANDARD_NSMAP,
)
from repro.xmlcore.lexer import StartTagToken
from repro.xmlcore.tree import Element
from repro.xmlcore.treebuilder import XmlScanner
from repro.xmlcore.writer import serialize, serialize_bytes


class Envelope:
    """A SOAP envelope under construction or freshly parsed."""

    __slots__ = ("header_entries", "body_entries")

    def __init__(self) -> None:
        self.header_entries: list[Element] = []
        self.body_entries: list[Element] = []

    # -- construction ---------------------------------------------------

    def add_header(self, entry: Element, *, must_understand: bool = False) -> Element:
        """Append a header entry (optionally mustUnderstand) and return it."""
        if must_understand:
            entry.set(MUST_UNDERSTAND_ATTR, "1")
        self.header_entries.append(entry)
        return entry

    def add_body(self, entry: Element) -> Element:
        """Append a body entry and return it."""
        self.body_entries.append(entry)
        return entry

    # -- rendering --------------------------------------------------------

    def to_element(self) -> Element:
        """Build the Envelope/Header/Body element tree."""
        envelope = Element(ENVELOPE_TAG, nsmap=dict(STANDARD_NSMAP))
        if self.header_entries:
            header = envelope.subelement(HEADER_TAG)
            header.extend(self.header_entries)
        body = envelope.subelement(BODY_TAG)
        body.extend(self.body_entries)
        return envelope

    def to_string(self) -> str:
        """Serialize to text with an XML declaration."""
        return serialize(self.to_element(), declaration=True)

    def to_bytes(self) -> bytes:
        """Serialize to UTF-8 bytes with an XML declaration."""
        return serialize_bytes(self.to_element())

    # -- parsing ------------------------------------------------------------

    @classmethod
    def parse(cls, source: str | bytes, *, server: bool = False) -> "Envelope":
        """Parse a SOAP document — the one envelope-parsing entry point.

        The scanner walks the document once; the Envelope/Header/Body
        scaffolding never becomes tree nodes, and body entries are
        materialized directly.

        With ``server=True`` header entries are materialized too, so
        server paths keep full header visibility (mustUnderstand,
        WS-Security, trace propagation).  With the default
        ``server=False`` headers are skipped without namespace
        expansion or Element construction — the client response path,
        which only consumes body entries.
        """
        envelope = cls()
        headers = envelope.header_entries if server else None
        envelope.body_entries = list(walk_envelope(source, headers, XmlScanner.read_element))
        return envelope

    def first_body_entry(self) -> Element:
        """The first body entry (the only one, classically)."""
        return self.body_entries[0]

    def find_header(self, tag: str) -> Element | None:
        """First header entry matching a tag or local name, or None."""
        for entry in self.header_entries:
            if entry.tag == tag or entry.local_name == tag:
                return entry
        return None

    def unprocessed_must_understand(self, understood: set[str]) -> list[Element]:
        """Header entries flagged mustUnderstand whose tag is not in
        ``understood`` — the server must fault on these."""
        missed = []
        for entry in self.header_entries:
            if entry.get(MUST_UNDERSTAND_ATTR) in ("1", "true") and entry.tag not in understood:
                missed.append(entry)
        return missed


def iter_body_entries(document: str | bytes) -> Iterator[Element]:
    """Yield the Body's entries straight off the scanner.

    The envelope scaffolding is validated (same :class:`SoapError`
    diagnostics as :meth:`Envelope.parse`) but the Header subtree
    is *skipped* without namespace expansion or tree building, and only
    body entries are materialized — the streaming fast path for
    consumers that feed an
    :class:`~repro.soap.deserializer.OperationMatcher`.
    """
    return walk_envelope(document, None, XmlScanner.read_element)


def walk_envelope(
    document: str | bytes,
    header_sink: list[Element] | None,
    read_entry: Callable[[XmlScanner, StartTagToken], Element],
) -> Iterator[Element]:
    """Scanner walk shared by all parse paths: yields each body entry as
    ``read_entry(scanner, start tag)`` reads it (a tree, or values
    decoded off the scanner); header entries are materialized into
    ``header_sink`` when given (the server path) or skipped without
    expansion (the client path)."""
    cursor = XmlScanner(document)
    root = cursor.enter(cursor.root())
    if root.tag != ENVELOPE_TAG:
        if root.local_name == "Envelope":
            raise SoapError(
                f"unsupported SOAP envelope namespace '{root.namespace}' "
                f"(expected {SOAP_ENV_NS})"
            )
        raise SoapError(f"document root is <{root.tag}>, not a SOAP Envelope")

    child = cursor.next_child()
    if child is None:
        raise SoapError("SOAP Envelope has no Body")
    element = cursor.enter(child)
    if element.tag == HEADER_TAG:
        entry = cursor.next_child()
        while entry is not None:
            if header_sink is None:
                cursor.skip(entry)
            else:
                header_sink.append(cursor.read_element(entry))
            entry = cursor.next_child()
        child = cursor.next_child()
        if child is None:
            raise SoapError("SOAP Envelope has no Body")
        element = cursor.enter(child)
    if element.tag != BODY_TAG:
        raise SoapError("SOAP Envelope has no Body")

    entries = 0
    entry = cursor.next_child()
    while entry is not None:
        yield read_entry(cursor, entry)
        entries += 1
        entry = cursor.next_child()
    if not entries:
        raise SoapError("SOAP Body is empty")
    if cursor.next_child() is not None:
        raise SoapError("unexpected elements after SOAP Body")
    cursor.finish()
