"""Direct scanner→tree builder: the fused lex+parse reader.

:class:`XmlScanner` builds :class:`~repro.xmlcore.tree.Element` nodes
straight off the source text.  SOAP documents are a handful of distinct
start tags repeated thousands of times, so its per-node loop
(:meth:`XmlScanner._read_children_into`) is built around a memo:

* **What is memoised.**  The raw text of a start tag, ``<`` through the
  first ``>``, maps to its finished ``(Clark tag, attribute tuple,
  end-tag text)``.  A hit costs one ``str.find``, one slice and one
  dict lookup — no regex, no attribute split, no unescape, no name
  resolution, no token — and the elements built from it share the
  attribute tuple (``Element.set`` replaces it, never mutates it).
  Equal text scans to an equal result, so a hit needs no second look.
  The element's end tag is one ``str.startswith`` of the memoised text.
* **What invalidates it.**  Namespace bindings: the memo is cleared
  wherever a frame is pushed on or popped off the scope — exactly where
  :attr:`NamespaceScope.version` moves — and a start tag that declares
  namespaces is never memoised.  Elements that declare nothing push no
  frame, so the memo holds across the pack envelope's sibling entries.
  It lives and dies with the scanner, one document: no bound, no knob.
* **What falls back.**  Everything else is the lexer's: a memo miss is
  tokenized by :mod:`repro.xmlcore.lexer` (start-tag regex, then its
  character loop for diagnostics and legacy tolerances) and expanded by
  :func:`expand_start_tag`; so are end tags not literally the expected
  text, comments, CDATA, PIs, and text runs that hold an ``&``.
  Character legality and ``]]>`` are probed once per document
  (:func:`~repro.xmlcore.escape.has_suspect_chars`); a document that
  trips the probe has every run checked by the lexer, which says where.
  Text runs are found with ``str.find``, never a ``[^<]*`` regex, which
  costs 30 % on 100 KB payloads.

The pull API behind ``soap.envelope`` parsing — :meth:`root` /
:meth:`enter` / :meth:`next_child` / :meth:`skip` /
:meth:`read_element` / :meth:`finish`, what
``repro.xmlcore.parse(mode="cursor")`` returns — walks the same lexer
token by token and shares its position, so the two styles interleave.
:func:`build_tree` is the whole-document entry point behind
:func:`repro.xmlcore.parse`.
"""

from __future__ import annotations

from repro.errors import XmlNamespaceError, XmlWellFormednessError
from repro.xmlcore import lexer as lx
from repro.xmlcore.escape import unescape
from repro.xmlcore.qname import NamespaceScope
from repro.xmlcore.tree import Element


def decode_document(data: bytes) -> str:
    """Decode document bytes, honouring a BOM or declared encoding.

    SOAP 1.1 over HTTP is overwhelmingly UTF-8; UTF-16 BOMs and an
    explicit ``encoding=`` pseudo-attribute are also honoured.  Codec
    failures (bogus declared encodings, malformed byte sequences) are
    reported as well-formedness errors, never as raw codec exceptions.
    """
    try:
        if data.startswith(b"\xef\xbb\xbf"):
            return data[3:].decode("utf-8")
        if data.startswith(b"\xff\xfe"):
            return data.decode("utf-16-le")[1:]
        if data.startswith(b"\xfe\xff"):
            return data.decode("utf-16-be")[1:]
        head = data[:256]
        if head.startswith(b"<?xml"):
            end = head.find(b"?>")
            if end != -1:
                decl = head[:end].decode("ascii", "replace")
                marker = 'encoding="'
                alt = "encoding='"
                for m in (marker, alt):
                    idx = decl.find(m)
                    if idx != -1:
                        rest = decl[idx + len(m) :]
                        enc = rest[: rest.find(m[-1])]
                        return data.decode(enc)
        return data.decode("utf-8")
    except (UnicodeError, LookupError) as exc:
        raise XmlWellFormednessError(f"undecodable document: {exc}") from None


def expand_start_tag(
    scope: NamespaceScope, token: lx.StartTagToken
) -> tuple[str, tuple[tuple[str, str], ...], dict[str, str] | None]:
    """The Clark tag, attribute tuple and namespace declarations (None
    when it makes none) of a start tag — the one place every reader
    expands names.  Declarations are pushed on ``scope`` as a frame the
    caller pops when the element ends; without any, nothing is pushed."""
    declarations: dict[str, str] | None = None
    plain = token.attributes
    for attr_name, _ in plain:
        if attr_name.startswith("xmlns") and (len(attr_name) == 5 or attr_name[5] == ":"):
            declarations = {}
            plain = []
            for name, value in token.attributes:
                if name == "xmlns":
                    declarations[""] = value
                elif name.startswith("xmlns:"):
                    declarations[name[6:]] = value
                else:
                    plain.append((name, value))
            break
    try:
        if declarations is not None:
            scope.push(declarations)
        tag = scope.resolve_name(token.name).clark
        attributes = tuple(
            [(scope.resolve_name(name, is_attribute=True).clark, value) for name, value in plain]
        )
        if len(attributes) > 1:
            seen: set[str] = set()
            for index, (key, _) in enumerate(attributes):
                if key in seen:
                    raise XmlWellFormednessError(
                        f"duplicate attribute '{plain[index][0]}' on <{token.name}>",
                        token.line,
                        token.column,
                    )
                seen.add(key)
    except XmlWellFormednessError:
        raise
    except Exception as exc:
        raise type(exc)(f"{exc} (line {token.line}, column {token.column})") from None
    return tag, attributes, declarations


_new_element = Element.__new__


class XmlScanner:
    """Fused scanner over one document; see the module docstring."""

    __slots__ = ("_scope", "_entered", "_lexer", "_memo")

    def __init__(self, source: str | bytes) -> None:
        if isinstance(source, bytes):
            source = decode_document(source)
        self._scope = NamespaceScope()
        # (raw name, self_closing, pushed-a-scope-frame) per entered element
        self._entered: list[tuple[str, bool, bool]] = []
        # Holds the source and the position, tokenizes whatever the per-node
        # loop does not, and ran the once-per-document character probe.
        self._lexer = lx.Lexer(source)
        # raw start-tag text -> (Clark tag, attribute tuple, end-tag text
        # or None when self-closing); cleared wherever a namespace frame
        # is pushed or popped, and gone with the scanner (one document)
        self._memo: dict[str, tuple[str, tuple, str | None]] = {}  # repro: disable=no-unbounded-cache

    # -- whole-document parse --------------------------------------------

    def document(self) -> Element:
        """Parse the complete document and return its root element."""
        element = self.read_element(self.root())
        self._epilog()
        return element

    # -- pull navigation --------------------------------------------------

    def root(self) -> lx.StartTagToken:
        """Consume the prolog and return the root element's start tag."""
        first = self._lexer._pos == 0
        while True:
            token = self._lexer.next_token(allow_decl=first)
            first = False
            if token is None:
                raise XmlWellFormednessError("document contains no element")
            if isinstance(token, lx.StartTagToken):
                return token
            if isinstance(token, lx.EndTagToken):
                raise _error(f"unexpected end tag </{token.name}>", token)
            _require_blank(token)

    def enter(self, start: lx.StartTagToken) -> Element:
        """Expand ``start`` into a childless Element and open its scope.

        After entering, :meth:`next_child` iterates the element's child
        start tags; once it returns None the scope has been closed.
        """
        tag, attributes, declarations = self._expand(start)
        self._entered.append((start.name, start.self_closing, declarations is not None))
        return Element(tag, attributes, nsmap=declarations)

    def next_child(self) -> lx.StartTagToken | None:
        """The next child start tag of the innermost entered element, or
        None when that element closes."""
        if not self._entered:
            raise XmlWellFormednessError("next_child() with no entered element")
        name, self_closing, _ = self._entered[-1]
        if self_closing:
            self._leave()
            return None
        while True:
            # Text, CDATA, comments and PIs between children are
            # validated by the lexer and dropped.
            token = self._lexer.next_token()
            if token is None:
                raise XmlWellFormednessError(f"unclosed element <{name}>")
            if isinstance(token, lx.StartTagToken):
                return token
            if isinstance(token, lx.EndTagToken):
                if token.name != name:
                    raise _error(
                        f"mismatched end tag: expected </{name}>, got </{token.name}>", token
                    )
                self._leave()
                return None

    def skip(self, start: lx.StartTagToken) -> None:
        """Discard the subtree opened by ``start`` without expanding it.

        Internal namespace declarations never touch the scope; character
        data is still validated by the lexer, but never kept.
        """
        depth = 0 if start.self_closing else 1
        while depth:
            token = self._lexer.next_token()
            if token is None:
                raise _error(f"unclosed element <{start.name}>", start)
            if isinstance(token, lx.EndTagToken):
                depth -= 1
            elif isinstance(token, lx.StartTagToken) and not token.self_closing:
                depth += 1

    def read_element(self, start: lx.StartTagToken) -> Element:
        """Materialize the subtree opened by ``start`` as an Element."""
        element = self.enter(start)
        if start.self_closing:
            self._leave()
        else:
            self._read_children_into(element)
        return element

    def finish(self) -> None:
        """Drain open elements, checking nothing but epilog remains."""
        while self._entered:
            child = self.next_child()
            if child is not None:
                self.skip(child)
        self._epilog()

    # -- the per-node loop ------------------------------------------------

    def _read_children_into(self, root: Element) -> None:
        """Consume the content of ``root`` — the innermost entered element —
        through its end tag, building the subtree in place."""
        lexer = self._lexer
        src = lexer._src
        find = src.find
        startswith = src.startswith
        scope = self._scope
        suspect = lexer._suspect
        memo = self._memo
        name, _, pushed = self._entered.pop()
        close = f"</{name}>"
        children = root.children
        # (children list, end-tag text, pushed-a-frame) of each open ancestor
        stack: list[tuple[list, str, bool]] = []
        pos = lexer._pos
        while True:
            lt = find("<", pos)
            if lt == -1:
                lexer._pos = pos
                lexer.next_token()  # trailing text is the lexer's to fault first
                element = stack[-1][0][-1] if stack else root
                raise XmlWellFormednessError(f"unclosed element <{element.tag}>")
            if lt > pos:
                text = src[pos:lt]
                if suspect:  # the lexer checks the run, and says where it fails
                    lexer._pos = pos
                    text = lexer._lex_text().text
                elif "&" in text:
                    text = unescape(text)
                children.append(text)
            if startswith(close, lt):
                pos = lt + len(close)
            elif startswith("/", lt + 1):
                lexer._pos = lt
                token = lexer._lex_end_tag()
                pos = lexer._pos
                self._check_end(token, stack[-1][0][-1] if stack else root)
            else:
                gt = find(">", lt)
                hit = memo.get(src[lt : gt + 1])
                if hit is not None:
                    tag, attributes, child_close = hit
                    pos = gt + 1
                    declarations = None
                else:
                    lexer._pos = lt
                    token = lexer._lex_markup(allow_decl=False)
                    pos = lexer._pos
                    if not isinstance(token, lx.StartTagToken):
                        if isinstance(token, lx.CDataToken) and token.text:
                            children.append(token.text)
                        continue
                    tag, attributes, declarations = self._expand(token)
                    child_close = None if token.self_closing else f"</{token.name}>"
                    if declarations is None and pos == gt + 1:
                        memo[src[lt:pos]] = (tag, attributes, child_close)
                element = _new_element(Element)
                element.tag = tag
                element._attrs = attributes
                element.children = grandchildren = []
                element.nsmap = declarations or {}
                children.append(element)
                if child_close is not None:
                    stack.append((children, close, pushed))
                    children = grandchildren
                    close = child_close
                    pushed = declarations is not None
                elif declarations is not None:
                    scope.pop()
                    memo.clear()
                continue
            # The current element's end tag has been consumed.
            if pushed:
                scope.pop()
                memo.clear()
            if not stack:
                lexer._pos = pos
                return
            children, close, pushed = stack.pop()

    # -- bookkeeping -------------------------------------------------------

    def _expand(self, start: lx.StartTagToken):
        """:func:`expand_start_tag`, dropping the memo if it pushed a frame."""
        expanded = expand_start_tag(self._scope, start)
        if expanded[2] is not None:
            self._memo.clear()
        return expanded

    def _check_end(self, token: lx.EndTagToken, element: Element) -> None:
        """Hold an end tag that is not literally the expected text against
        the open ``element``.  Different raw names may still resolve
        identically (same URI under two prefixes): compare resolved."""
        try:
            if self._scope.resolve_name(token.name).clark == element.tag:
                return
        except XmlNamespaceError:
            pass  # a name that resolves to nothing matches nothing
        raise _error(
            f"mismatched end tag: expected </...{element.qname.local}>, got </{token.name}>",
            token,
        )

    def _leave(self) -> None:
        _, _, pushed = self._entered.pop()
        if pushed:
            self._scope.pop()
            self._memo.clear()

    def _epilog(self) -> None:
        """Validate that only comments/PIs/whitespace remain."""
        while (token := self._lexer.next_token()) is not None:
            if isinstance(token, lx.EndTagToken):
                raise _error(f"unexpected end tag </{token.name}>", token)
            if isinstance(token, lx.StartTagToken):
                raise _error("document has more than one root element", token)
            _require_blank(token)


def _require_blank(token: lx.Token) -> None:
    if isinstance(token, (lx.TextToken, lx.CDataToken)) and token.text.strip():
        raise _error("character data outside the root element", token)


def _error(message: str, token: lx.Token) -> XmlWellFormednessError:
    return XmlWellFormednessError(message, token.line, token.column)


def build_tree(source: str | bytes) -> Element:
    """Parse a complete XML document straight into an element tree."""
    return XmlScanner(source).document()
