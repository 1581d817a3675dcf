"""Token-pull reference reader: the lexer-token differential for the scanner.

:class:`XmlCursor` was the production pull reader until ``XmlScanner``
took over its API; it is kept here, unchanged, as the reference the
scanner's per-node loop is held to (``test_reader_parity.py`` and
``tests/properties/test_reader_parity_properties.py``).  It builds every
element from lexer tokens — no start-tag memo, no per-node loop:

* :meth:`root` positions on the document root's start tag;
* :meth:`enter` expands one start tag (opening its namespace scope)
  so its children become reachable;
* :meth:`next_child` steps between an entered element's child start
  tags, consuming intervening text;
* :meth:`skip` discards a subtree by counting tags — its internal
  namespace declarations never touch the scope;
* :meth:`read_element` materializes one subtree into an
  :class:`~repro.xmlcore.tree.Element`, equivalent to what
  :func:`repro.xmlcore.parse` would have produced for it.
"""

from __future__ import annotations

from repro.errors import XmlWellFormednessError
from repro.xmlcore import lexer as lx
from repro.xmlcore.treebuilder import decode_document, expand_start_tag
from repro.xmlcore.qname import NamespaceScope
from repro.xmlcore.tree import Element


def _expand(token: lx.StartTagToken, scope: NamespaceScope) -> Element:
    tag, attributes, declarations = expand_start_tag(scope, token)
    if declarations is None:
        scope.push()  # the cursor pops one frame per element, declaring or not
    return Element(tag, attributes, nsmap=declarations)


class XmlCursor:
    """Pull-reader over one document; see the module docstring."""

    __slots__ = ("_tokens", "_scope", "_entered")

    def __init__(self, source: str | bytes) -> None:
        if isinstance(source, bytes):
            source = decode_document(source)
        self._tokens = lx.Lexer(source).tokens()
        self._scope = NamespaceScope()
        # raw names + self-closing flags of elements we entered
        self._entered: list[tuple[str, bool]] = []

    # -- navigation ------------------------------------------------------

    def root(self) -> lx.StartTagToken:
        """Consume the prolog and return the root element's start tag."""
        for token in self._tokens:
            if isinstance(token, lx.StartTagToken):
                return token
            if isinstance(token, (lx.XmlDeclToken, lx.CommentToken, lx.PIToken)):
                continue
            if isinstance(token, (lx.TextToken, lx.CDataToken)):
                if token.text.strip():
                    raise XmlWellFormednessError(
                        "character data outside the root element",
                        token.line,
                        token.column,
                    )
                continue
            raise XmlWellFormednessError(
                f"unexpected end tag </{token.name}>", token.line, token.column
            )
        raise XmlWellFormednessError("document contains no element")

    def enter(self, token: lx.StartTagToken) -> Element:
        """Expand ``token`` into a childless Element and open its scope.

        After entering, :meth:`next_child` iterates the element's child
        start tags; once it returns None the scope has been popped.
        """
        element = _expand(token, self._scope)
        self._entered.append((token.name, token.self_closing))
        return element

    def next_child(self) -> lx.StartTagToken | None:
        """The next child start tag of the innermost entered element, or
        None when that element closes (its scope is popped)."""
        if not self._entered:
            raise XmlWellFormednessError("next_child() with no entered element")
        name, self_closing = self._entered[-1]
        if self_closing:
            self._leave()
            return None
        for token in self._tokens:
            if isinstance(token, lx.StartTagToken):
                return token
            if isinstance(token, lx.EndTagToken):
                if token.name != name:
                    raise XmlWellFormednessError(
                        f"mismatched end tag: expected </{name}>, got </{token.name}>",
                        token.line,
                        token.column,
                    )
                self._leave()
                return None
            # Text, CDATA, comments and PIs between children are legal;
            # the cursor's callers care about element structure only.
        raise XmlWellFormednessError(f"unclosed element <{name}>")

    def skip(self, token: lx.StartTagToken) -> None:
        """Discard the subtree opened by ``token`` without expanding it."""
        if token.self_closing:
            return
        depth = 1
        for tok in self._tokens:
            if isinstance(tok, lx.StartTagToken):
                if not tok.self_closing:
                    depth += 1
            elif isinstance(tok, lx.EndTagToken):
                depth -= 1
                if depth == 0:
                    return
        raise XmlWellFormednessError(
            f"unclosed element <{token.name}>", token.line, token.column
        )

    def read_element(self, token: lx.StartTagToken) -> Element:
        """Materialize the subtree opened by ``token`` as an Element."""
        scope = self._scope
        root = _expand(token, scope)
        if token.self_closing:
            scope.pop()
            return root
        stack: list[Element] = [root]
        names: list[str] = [token.name]
        for tok in self._tokens:
            if isinstance(tok, lx.StartTagToken):
                element = _expand(tok, scope)
                stack[-1].children.append(element)
                if tok.self_closing:
                    scope.pop()
                else:
                    stack.append(element)
                    names.append(tok.name)
            elif isinstance(tok, lx.EndTagToken):
                if tok.name != names[-1]:
                    raise XmlWellFormednessError(
                        f"mismatched end tag: expected </{names[-1]}>, got </{tok.name}>",
                        tok.line,
                        tok.column,
                    )
                names.pop()
                stack.pop()
                scope.pop()
                if not stack:
                    return root
            elif isinstance(tok, (lx.TextToken, lx.CDataToken)):
                if tok.text:
                    stack[-1].children.append(tok.text)
        raise XmlWellFormednessError(f"unclosed element <{names[-1]}>")

    def finish(self) -> None:
        """Drain the stream, checking nothing but epilog remains."""
        while self._entered:
            token = self.next_child()
            if token is not None:
                self.skip(token)
        for token in self._tokens:
            if isinstance(token, lx.StartTagToken):
                raise XmlWellFormednessError(
                    "document has more than one root element",
                    token.line,
                    token.column,
                )
            if isinstance(token, lx.EndTagToken):
                raise XmlWellFormednessError(
                    f"unexpected end tag </{token.name}>", token.line, token.column
                )
            if isinstance(token, (lx.TextToken, lx.CDataToken)) and token.text.strip():
                raise XmlWellFormednessError(
                    "character data outside the root element",
                    token.line,
                    token.column,
                )

    # -- internals -------------------------------------------------------

    def _leave(self) -> None:
        self._entered.pop()
        self._scope.pop()
