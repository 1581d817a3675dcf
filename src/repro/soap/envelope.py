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
    PARALLEL_METHOD,
    SOAP_ENV_NS,
    STANDARD_NSMAP,
)
from repro.xmlcore.lexer import StartTagToken
from repro.xmlcore.tree import Element
from repro.xmlcore.treebuilder import XmlScanner
from repro.xmlcore.writer import StreamingWriter, _write_element, write_pack


class Envelope:
    """A SOAP envelope under construction or freshly parsed.  Once read by
    a server-mode parse or sealed, its Body's text is ``source[body_start:body_end]``,
    under the namespace declarations ``body_scope`` (the Envelope's); a sealed
    one writes that text."""

    __slots__ = ("header_entries", "body_entries", "source", "body_start", "body_end", "body_scope",
                 "_sealed", "read_by")

    def __init__(self) -> None:
        self.header_entries: list[Element] = []
        self.body_entries: list[Element] = []
        self.source: str | None = None
        self.body_start = self.body_end = 0
        self.body_scope: dict[str, str] | None = None
        self._sealed = False
        self.read_by: str | None = None  # the source that read it: "scanner" or "tree"

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

    def seal_body(self) -> bytes:
        """Render the Body once, as :meth:`to_bytes` writes it, and write only
        that text from then on (later entry edits are not sent); return its UTF-8."""
        text = self._write(headers=False)  # the Body is all the root holds
        self.source, self.body_start, self.body_end = text, text.index(">") + 1, text.rindex("</")
        self.body_scope = dict(STANDARD_NSMAP)
        self._sealed = True
        return text[self.body_start : self.body_end].encode("utf-8")

    def to_string(self) -> str:
        """Serialize to text with an XML declaration."""
        return self._write(declaration=True)

    def to_bytes(self) -> bytes:
        """Serialize to UTF-8 bytes with an XML declaration."""
        return self._write(declaration=True).encode("utf-8")

    def _write(self, *, declaration: bool = False, headers: bool = True) -> str:
        """The Envelope, its Header (if it has entries) and its Body, written
        in one pass: a ``Parallel_Method`` body entry by :func:`write_pack`,
        anything else by the writer's per-node loop."""
        writer: StreamingWriter = _OPENED[declaration]._copy()
        if headers and self.header_entries:
            writer.start(HEADER_TAG)
            for entry in self.header_entries:
                _write_element(writer, entry)
            writer.end()
        if self._sealed:
            writer.raw(self.source[self.body_start : self.body_end])
        else:
            writer.start(BODY_TAG)
            for entry in self.body_entries:
                (write_pack if entry.tag == PARALLEL_METHOD else _write_element)(writer, entry)
            writer.end()
        writer.end()
        return writer.getvalue()

    # -- parsing ------------------------------------------------------------

    @classmethod
    def parse(cls, source: str | bytes, *, server: bool = False) -> "Envelope":
        """Parse a SOAP document into body entry trees (the tree source the
        scanner readers of ``repro.soap.deserializer`` fall back to), in one
        :func:`walk_envelope`: the skeleton never becomes tree nodes.  With
        ``server=True`` header entries are trees too (mustUnderstand,
        WS-Security, trace propagation) and the Body's span is kept; by
        default headers are skipped without namespace expansion."""
        envelope = cls()
        envelope.read_by = "tree"
        walk = walk_envelope(source, envelope if server else None, XmlScanner.read_element)
        envelope.body_entries = list(walk)
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


def walk_envelope(
    document: str | bytes,
    envelope: Envelope | None,
    read_entry: Callable[[XmlScanner, StartTagToken], Element],
) -> Iterator[Element]:
    """Scanner walk shared by all parse paths: yields each body entry as
    ``read_entry(scanner, start tag)`` reads it (a tree, or values decoded
    off the scanner).  Given an ``envelope`` (the server path), headers and
    the Body's span go on it; without one, headers are skipped unexpanded.
    Our writer's own head and tail are read as literals (:func:`_read_skeleton`)."""
    cursor = XmlScanner(document)
    head, child, nsmap, tail = _SKELETON
    if not cursor.resume(head):
        (child, nsmap), tail = _into_body(cursor, envelope), None
    entries = 0
    while True:
        source, start, end = cursor.span_since(child)
        if tail is not None and end == len(source) - len(tail) and source.endswith(tail):
            end += tail.index("</", 1)  # through the Body's end tag; nothing left to read
            break
        if (entry := cursor.next_child()) is None:
            source, start, end, tail = *cursor.span_since(child), None
            break
        yield read_entry(cursor, entry)
        entries += 1
    if not entries:
        raise SoapError("SOAP Body is empty")
    if envelope is not None:
        envelope.source, envelope.body_start, envelope.body_end = source, start, end
        envelope.body_scope = dict(nsmap)
    if tail is None:
        if cursor.next_child() is not None:
            raise SoapError("unexpected elements after SOAP Body")
        cursor.finish()


def _into_body(cursor: XmlScanner, envelope: Envelope | None) -> tuple[StartTagToken, dict]:
    """The token path into the Body (headers as :func:`walk_envelope` says):
    the Body's start tag and the Envelope's namespace declarations."""
    root = cursor.enter(cursor.root())
    if root.tag != ENVELOPE_TAG and root.local_name == "Envelope":
        raise SoapError(
            f"unsupported SOAP envelope namespace '{root.namespace}' (expected {SOAP_ENV_NS})")
    if root.tag != ENVELOPE_TAG:
        raise SoapError(f"document root is <{root.tag}>, not a SOAP Envelope")
    child = cursor.next_child()
    element = child and cursor.enter(child)
    if element is not None and element.tag == HEADER_TAG:
        while (entry := cursor.next_child()) is not None:
            if envelope is None:
                cursor.skip(entry)
            else:
                envelope.header_entries.append(cursor.read_element(entry))
        child = cursor.next_child()
        element = child and cursor.enter(child)
    if element is None or element.tag != BODY_TAG:
        raise SoapError("SOAP Envelope has no Body")
    return child, root.nsmap


# The writer's Envelope opened once, with and without the declaration, its
# memo holding the Header's and the Body's texts as a twin rendered them;
# _write copies one.
_OPENED = {declaration: StreamingWriter(declaration=declaration) for declaration in (False, True)}
for _writer in _OPENED.values():
    _writer.start(ENVELOPE_TAG, nsmap=STANDARD_NSMAP)
    _twin = _writer._copy()
    for _tag in (HEADER_TAG, BODY_TAG):
        _twin.start(_tag)
    _writer._elements = _twin._elements


def _read_skeleton() -> tuple[XmlScanner, StartTagToken, dict[str, str], str]:
    """Our writer's text before a Body's entries as :func:`_into_body` read it
    (the scanner, which a document that starts with this text resumes, the
    Body's start tag, the Envelope's declarations) and its text after them."""
    envelope = Envelope()
    envelope.add_body(Element("x"))
    head, tail = envelope.to_string().split("<x/>")
    cursor = XmlScanner(head)
    return (cursor, *_into_body(cursor, None), tail)


_SKELETON = _read_skeleton()
