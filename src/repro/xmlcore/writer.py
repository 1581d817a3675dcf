"""Serialization of element trees and a streaming tag writer.

Namespace handling: element and attribute names are stored in Clark
notation; the writer assigns prefixes on the way out.  An element's
``nsmap`` supplies preferred prefixes; URIs with no preferred prefix
get generated ``ns0``, ``ns1``, ... declarations at first use.

Output accumulates in a plain list joined at the end.  The per-node
work is a memo of rendered names:

* **What is memoised.**  A Clark element name maps to its open-tag and
  end-tag texts (``<p:local`` / ``</p:local>``), a Clark attribute name
  to its ``' p:local="'`` piece, and a whole attribute tuple — the RPC
  codec and the reader share one tuple among all elements of a type —
  to its rendered text (``' xsi:type="xsd:string"'``, escaped).
  :func:`serialize` writes an element whose ``nsmap`` is empty straight
  from those — no ``QName``, no scope frame, no declarations dict — so
  the pack envelope's N identical body entries resolve their prefixes
  once, not N times.
* **What invalidates it.**  The memos hold for one namespace scope
  version: they are cleared wherever a declaration is made (an
  ``nsmap``, a generated ``nsN`` prefix, an ``xmlns=""`` reset) and
  wherever a declaring frame is popped.  They live and die with the
  writer, one document.
* **What falls back.**  An element with an ``nsmap``, or with a name
  the memo does not hold yet, goes through :meth:`StreamingWriter.start`
  — the general path, which fills the memo; a name that needs a
  declaration on every occurrence takes it every time.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import XmlNamespaceError
from repro.xmlcore.escape import escape_attribute, escape_text
from repro.xmlcore.qname import NamespaceScope, QName
from repro.xmlcore.tree import Element

XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>'


class StreamingWriter:
    """Emit XML incrementally via start/characters/end calls.

    Used by the SOAP serializer so large payloads never require a full
    intermediate tree, mirroring the streaming serializers in gSOAP.
    """

    __slots__ = ("_parts", "_scope", "_open", "_counter", "_tag_open", "_elements", "_attributes")

    def __init__(self, *, declaration: bool = False) -> None:
        self._parts: list[str] = []
        self._scope = NamespaceScope()
        self._open: list[str] = []  # end-tag texts of open elements
        self._counter = 0
        self._tag_open = False
        # Rendered names under the current scope version: Clark tag ->
        # (open-tag text, end-tag text); Clark attribute name -> its
        # ' name="' piece and, in the same dict so that the two are
        # cleared together, attribute tuple -> its whole rendered text.
        # Cleared on every scope-version change and bounded by the
        # writer's lifetime (one document), so no capacity knob needed.
        self._elements: dict[str, tuple[str, str]] = {}  # repro: disable=no-unbounded-cache
        self._attributes: dict[str | tuple, str] = {}  # repro: disable=no-unbounded-cache
        if declaration:
            self._parts.append(XML_DECLARATION)

    # -- element events ------------------------------------------------

    def start(
        self,
        tag: str | QName,
        attributes: "dict[str, str] | Iterable[tuple[str, str]] | None" = None,
        nsmap: dict[str, str] | None = None,
    ) -> None:
        """Open an element with attributes and namespace declarations.

        ``attributes`` may be a mapping or an ordered iterable of
        ``(name, value)`` pairs — the tree core's native form.
        """
        self._close_start_tag()
        tag = tag if type(tag) is str else str(tag)
        # An nsmap clears the memos below, so only its absence can hit.
        texts = None if nsmap else self._elements.get(tag)
        if texts is None:
            qname = QName.parse(tag)
        self._scope.push()
        declarations: dict[str, str] = {}
        if nsmap:
            for prefix, uri in nsmap.items():
                self._declare(prefix, uri, declarations)

        if texts is None:
            name = self._render_name(qname, declarations, is_attribute=False)
            texts = self._elements[tag] = (f"<{name}", f"</{name}>")
        rendered_attrs: list[str] = []
        if attributes:
            pairs = attributes.items() if hasattr(attributes, "items") else attributes
            for attr, value in pairs:
                attr = attr if type(attr) is str else str(attr)
                piece = self._attributes.get(attr)
                if piece is None:
                    name = self._render_name(QName.parse(attr), declarations, is_attribute=True)
                    piece = self._attributes[attr] = f' {name}="'
                rendered_attrs.append(f'{piece}{escape_attribute(value)}"')

        parts = self._parts
        parts.append(texts[0])
        for prefix, uri in declarations.items():
            if prefix:
                parts.append(f' xmlns:{prefix}="{escape_attribute(uri)}"')
            else:
                parts.append(f' xmlns="{escape_attribute(uri)}"')
        parts.extend(rendered_attrs)
        self._open.append(texts[1])
        self._tag_open = True

    def characters(self, text: str) -> None:
        """Emit escaped character data."""
        if not text:
            return
        self._close_start_tag()
        self._parts.append(escape_text(text))

    def raw(self, markup: str) -> None:
        """Splice pre-serialized markup (used by differential serialization)."""
        self._close_start_tag()
        self._parts.append(markup)

    def comment(self, text: str) -> None:
        """Emit an XML comment; '--' in the text is illegal."""
        if "--" in text or text.endswith("-"):
            raise XmlNamespaceError("'--' (or a trailing '-') is not allowed in comments")
        self._close_start_tag()
        self._parts.append(f"<!--{text}-->")

    def processing_instruction(self, target: str, data: str = "") -> None:
        """Emit a processing instruction."""
        if not target or target.lower() == "xml" or "?>" in data:
            raise XmlNamespaceError(f"illegal processing instruction target '{target}'")
        self._close_start_tag()
        self._parts.append(f"<?{target} {data}?>" if data else f"<?{target}?>")

    def end(self) -> None:
        """Close the most recently opened element."""
        if not self._open:
            raise XmlNamespaceError("end() with no open element")
        end_tag = self._open.pop()
        if self._tag_open:
            self._parts.append("/>")
            self._tag_open = False
        else:
            self._parts.append(end_tag)
        scope = self._scope
        version = scope.version
        scope.pop()
        if scope.version != version:  # the frame held declarations
            self._elements.clear()
            self._attributes.clear()

    def element(
        self,
        tag: str | QName,
        text: str = "",
        attributes: "dict[str, str] | Iterable[tuple[str, str]] | None" = None,
    ) -> None:
        """Convenience: a leaf element with optional text content."""
        self.start(tag, attributes)
        self.characters(text)
        self.end()

    def getvalue(self) -> str:
        """The document text; raises if elements remain open."""
        if self._open:
            raise XmlNamespaceError(f"unclosed element <{self._open[-1][2:-1]}>")
        return "".join(self._parts)

    # -- internals -------------------------------------------------------

    def _close_start_tag(self) -> None:
        if self._tag_open:
            self._parts.append(">")
            self._tag_open = False

    def _render_name(
        self, qname: QName, declarations: dict[str, str], *, is_attribute: bool
    ) -> str:
        """``prefix:local`` for ``qname`` under the current scope, first
        declaring (into ``declarations`` too) what writing it needs."""
        if not qname.uri:
            # Unprefixed attribute: always fine.  Unprefixed element:
            # only fine if no default namespace is in scope.
            if not is_attribute and self._scope.resolve("") != "":
                self._declare("", "", declarations)
            return qname.local
        prefix = self._scope.prefix_for(qname.uri)
        if prefix is None or (is_attribute and prefix == ""):
            prefix = self._generate_prefix()
            self._declare(prefix, qname.uri, declarations)
        if prefix == "":
            return qname.local
        return f"{prefix}:{qname.local}"

    def _declare(self, prefix: str, uri: str, declarations: dict[str, str]) -> None:
        self._scope.declare(prefix, uri)
        declarations[prefix] = uri
        # Names rendered under the old scope may now be shadowed.
        self._elements.clear()
        self._attributes.clear()

    def _generate_prefix(self) -> str:
        while True:
            prefix = f"ns{self._counter}"
            self._counter += 1
            try:
                self._scope.resolve(prefix)
            except XmlNamespaceError:
                return prefix


def serialize(element: Element, *, declaration: bool = False) -> str:
    """Serialize an element tree to a string."""
    writer = StreamingWriter(declaration=declaration)
    _write_element(writer, element)
    return writer.getvalue()


def serialize_bytes(element: Element, *, declaration: bool = True) -> bytes:
    """Serialize to UTF-8 bytes, the form the HTTP layer transmits."""
    return serialize(element, declaration=declaration).encode("utf-8")


def _write_element(writer: StreamingWriter, root: Element) -> None:
    """Write the subtree at ``root``: the per-node loop.

    An element with no ``nsmap`` whose names the writer's memos hold is
    written from them; any other goes through :meth:`StreamingWriter.start`,
    which fills them.  Both clear the memos in place, so the local
    references stay good across a scope change.
    """
    writer._close_start_tag()
    append = writer._parts.append
    elements = writer._elements
    pieces = writer._attributes
    # Open elements: (iterator over the children still to write, end-tag
    # text — None when opened through start(), so closed through end()).
    stack: list[tuple[Iterator, str | None]] = []
    node = root
    while True:
        texts = None if node.nsmap else elements.get(node.tag)
        attrs = node._attrs
        if attrs and texts is not None:
            rendered = pieces.get(attrs)
            if rendered is None:
                rendered = ""
                for name, value in attrs:
                    piece = pieces.get(name)
                    if piece is None:  # not rendered under this scope yet
                        texts = None
                        break
                    rendered += f'{piece}{escape_attribute(value)}"'
                else:
                    pieces[attrs] = rendered
        if texts is None:
            writer.start(node.tag, attrs, node.nsmap)
            end_tag = None
        else:
            append(texts[0])
            if attrs:
                append(rendered)
            end_tag = texts[1]
        children = node.children
        # Empty strings write nothing; an Element is != "" by identity.
        if not children or not (children[0] != "" or any(c != "" for c in children)):
            if end_tag is None:
                writer.end()
            else:
                append("/>")
        else:
            if end_tag is None:
                writer._close_start_tag()
            else:
                append(">")
            stack.append((iter(children), end_tag))
        # Text up to the next element to open, closing what is finished.
        while stack:
            siblings, end_tag = stack[-1]
            for child in siblings:
                if not isinstance(child, str):
                    node = child
                    break
                if child:
                    append(escape_text(child))
            else:
                stack.pop()
                if end_tag is None:
                    writer.end()
                else:
                    append(end_tag)
                continue
            break
        else:
            return
