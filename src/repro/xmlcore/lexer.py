"""Tokenizer for the XML 1.0 subset SOAP toolkits exchange.

Produces a flat token stream (start tags with raw attribute lists, end
tags, character data, CDATA sections, comments, processing instructions
and the XML declaration).  Well-formedness that requires cross-token
state — tag balancing, duplicate attributes after namespace expansion,
single root — is enforced by the tree parser on top.

The lexer works on ``str``; decoding from bytes happens at the HTTP
boundary.

Hot-path design:

* Scanning is bulk, not per character: well-formed start tags are
  consumed by one precompiled regex (``_START_TAG_RE``); text runs,
  comments, CDATA and PIs by ``str.find``.  Anything the fast regex
  does not match falls back to the original character loop, which
  exists only to produce precise error messages.
* Positions are lazy.  Tokens carry their character offset; ``line``
  and ``column`` are computed (and cached) only when someone asks —
  in practice only when an error is being raised.  The old eager
  ``_advance_to`` bookkeeping sliced and counted every token's text.
* Character legality and ``]]>`` are probed once per document
  (:func:`repro.xmlcore.escape.has_suspect_chars`); only a document that
  trips the probe has its text runs and attribute values checked one by
  one, to find out where the character is and whether it is an error.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.errors import XmlWellFormednessError
from repro.xmlcore.escape import find_illegal_char, has_suspect_chars, unescape

_WHITESPACE = " \t\r\n"

# One match per well-formed start tag: name, a run of quoted attributes
# (whitespace-separated, values free of '<'), optional '/'.  Tags this
# regex rejects are re-lexed by the slow path for exact diagnostics
# (or for legacy tolerance, e.g. attributes not separated by spaces).
_START_TAG_RE = re.compile(
    r"<([^ \t\r\n/>]+)"
    r"((?:[ \t\r\n]+[^ \t\r\n=/>]+[ \t\r\n]*=[ \t\r\n]*(?:\"[^\"<]*\"|'[^'<]*'))*)"
    r"[ \t\r\n]*(/?)>"
)
_ATTR_RE = re.compile(
    r"[ \t\r\n]+([^ \t\r\n=/>]+)[ \t\r\n]*=[ \t\r\n]*(\"[^\"<]*\"|'[^'<]*')"
)
_END_TAG_RE = re.compile(r"</([^ \t\r\n>]+)[ \t\r\n]*>")


class Token:
    """A lexical token anchored at a character offset.

    ``line``/``column`` are derived from the offset on first access so
    the hot path never pays for position bookkeeping.
    """

    __slots__ = ("_src", "offset", "_line", "_column")

    def __init__(self, src: str, offset: int) -> None:
        self._src = src
        self.offset = offset
        self._line = 0
        self._column = 0

    @property
    def line(self) -> int:
        if not self._line:
            self._locate()
        return self._line

    @property
    def column(self) -> int:
        if not self._line:
            self._locate()
        return self._column

    def _locate(self) -> None:
        self._line, self._column = position_at(self._src, self.offset)


def position_at(src: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of ``offset`` in ``src``."""
    line = src.count("\n", 0, offset) + 1
    last_newline = src.rfind("\n", 0, offset)
    return line, offset - last_newline


class XmlDeclToken(Token):
    __slots__ = ("version", "encoding", "standalone")

    def __init__(
        self,
        src: str,
        offset: int,
        version: str = "1.0",
        encoding: str | None = None,
        standalone: str | None = None,
    ) -> None:
        super().__init__(src, offset)
        self.version = version
        self.encoding = encoding
        self.standalone = standalone


class StartTagToken(Token):
    __slots__ = ("name", "attributes", "self_closing")

    def __init__(
        self,
        src: str,
        offset: int,
        name: str = "",
        attributes: list[tuple[str, str]] | None = None,
        self_closing: bool = False,
    ) -> None:
        super().__init__(src, offset)
        self.name = name
        self.attributes = attributes if attributes is not None else []
        self.self_closing = self_closing


class EndTagToken(Token):
    __slots__ = ("name",)

    def __init__(self, src: str, offset: int, name: str = "") -> None:
        super().__init__(src, offset)
        self.name = name


class TextToken(Token):
    __slots__ = ("text",)

    def __init__(self, src: str, offset: int, text: str = "") -> None:
        super().__init__(src, offset)
        self.text = text


class CDataToken(Token):
    __slots__ = ("text",)

    def __init__(self, src: str, offset: int, text: str = "") -> None:
        super().__init__(src, offset)
        self.text = text


class CommentToken(Token):
    __slots__ = ("text",)

    def __init__(self, src: str, offset: int, text: str = "") -> None:
        super().__init__(src, offset)
        self.text = text


class PIToken(Token):
    __slots__ = ("target", "data")

    def __init__(self, src: str, offset: int, target: str = "", data: str = "") -> None:
        super().__init__(src, offset)
        self.target = target
        self.data = data


class Lexer:
    """Single-pass tokenizer over a complete document string."""

    __slots__ = ("_src", "_pos", "_suspect")

    def __init__(self, source: str) -> None:
        self._src = source
        self._pos = 0
        self._suspect = has_suspect_chars(source)

    def tokens(self) -> Iterator[Token]:
        """Yield tokens until the document is exhausted."""
        first = True
        while (token := self.next_token(allow_decl=first)) is not None:
            yield token
            first = False

    def next_token(self, *, allow_decl: bool = False) -> Token | None:
        """The token at the current position, or None at the end."""
        src = self._src
        if self._pos >= len(src):
            return None
        if src[self._pos] == "<":
            return self._lex_markup(allow_decl=allow_decl)
        return self._lex_text()

    # -- markup ----------------------------------------------------------

    def _lex_markup(self, *, allow_decl: bool) -> Token:
        src = self._src
        pos = self._pos
        nxt = src[pos + 1] if pos + 1 < len(src) else ""
        if nxt not in "?!/":
            return self._lex_start_tag()
        if nxt == "/":
            return self._lex_end_tag()
        if src.startswith("<?xml", pos) and pos + 5 < len(src) and src[pos + 5] in _WHITESPACE + "?":
            return self._lex_xml_decl(allow_decl)
        if nxt == "?":
            return self._lex_pi()
        if src.startswith("<!--", pos):
            return self._lex_comment()
        if src.startswith("<![CDATA[", pos):
            return self._lex_cdata()
        if src.startswith("<!DOCTYPE", pos):
            raise self._error("DOCTYPE declarations are rejected (XXE hardening)")
        return self._lex_start_tag()

    def _lex_xml_decl(self, allow_decl: bool) -> XmlDeclToken:
        if not allow_decl:
            raise self._error("XML declaration only allowed at document start")
        offset = self._pos
        end = self._src.find("?>", offset)
        if end == -1:
            raise self._error("unterminated XML declaration")
        body = self._src[offset + 5 : end]
        self._pos = end + 2
        attrs = dict(self._parse_pseudo_attributes(body, offset))
        version = attrs.get("version", "1.0")
        if version not in ("1.0", "1.1"):
            raise self._error(f"unsupported XML version '{version}'", offset)
        return XmlDeclToken(
            self._src, offset, version, attrs.get("encoding"), attrs.get("standalone")
        )

    def _lex_pi(self) -> PIToken:
        offset = self._pos
        end = self._src.find("?>", offset)
        if end == -1:
            raise self._error("unterminated processing instruction")
        body = self._src[offset + 2 : end]
        self._pos = end + 2
        target, _, data = body.partition(" ")
        if not target:
            raise self._error("processing instruction with empty target", offset)
        if target.lower() == "xml":
            raise self._error("PI target 'xml' is reserved", offset)
        return PIToken(self._src, offset, target, data.strip())

    def _lex_comment(self) -> CommentToken:
        offset = self._pos
        end = self._src.find("-->", offset + 4)
        if end == -1:
            raise self._error("unterminated comment")
        text = self._src[offset + 4 : end]
        if "--" in text:
            raise self._error("'--' not allowed inside comment")
        self._pos = end + 3
        return CommentToken(self._src, offset, text)

    def _lex_cdata(self) -> CDataToken:
        offset = self._pos
        end = self._src.find("]]>", offset + 9)
        if end == -1:
            raise self._error("unterminated CDATA section")
        text = self._src[offset + 9 : end]
        self._pos = end + 3
        self._check_chars(text, offset)
        return CDataToken(self._src, offset, text)

    def _lex_end_tag(self) -> EndTagToken:
        offset = self._pos
        src = self._src
        match = _END_TAG_RE.match(src, offset)
        if match is not None:
            self._pos = match.end()
            return EndTagToken(src, offset, match.group(1))
        end = src.find(">", offset)
        if end == -1:
            raise self._error("unterminated end tag")
        name = src[offset + 2 : end].strip(_WHITESPACE)
        if not name or any(c in _WHITESPACE for c in name):
            raise self._error(f"malformed end tag '</{name}>'")
        self._pos = end + 1
        return EndTagToken(src, offset, name)

    def _lex_start_tag(self) -> StartTagToken:
        offset = self._pos
        src = self._src
        match = _START_TAG_RE.match(src, offset)
        if match is None:
            return self._lex_start_tag_slow()
        name, raw_attrs, slash = match.groups()
        self._pos = match.end()
        attributes: list[tuple[str, str]] = []
        if raw_attrs:
            if self._suspect:
                self._check_chars(raw_attrs, offset)
            for attr_match in _ATTR_RE.finditer(raw_attrs):
                value = attr_match.group(2)
                attributes.append((attr_match.group(1), unescape(value[1:-1])))
        return StartTagToken(src, offset, name, attributes, slash == "/")

    def _lex_start_tag_slow(self) -> StartTagToken:
        """Character-accurate fallback; emits the precise diagnostics
        (and tolerances) of the original per-character lexer."""
        offset = self._pos
        src = self._src
        pos = offset + 1
        n = len(src)
        start = pos
        while pos < n and src[pos] not in _WHITESPACE + "/>":
            pos += 1
        name = src[start:pos]
        if not name:
            raise self._error("'<' not followed by a tag name")
        attributes: list[tuple[str, str]] = []
        while True:
            while pos < n and src[pos] in _WHITESPACE:
                pos += 1
            if pos >= n:
                raise self._error(f"unterminated start tag <{name}")
            if src[pos] == ">":
                self._pos = pos + 1
                return StartTagToken(src, offset, name, attributes, False)
            if src.startswith("/>", pos):
                self._pos = pos + 2
                return StartTagToken(src, offset, name, attributes, True)
            pos = self._lex_attribute(pos, name, attributes)

    def _lex_attribute(
        self, pos: int, tag: str, attributes: list[tuple[str, str]]
    ) -> int:
        src = self._src
        n = len(src)
        start = pos
        while pos < n and src[pos] not in _WHITESPACE + "=/>":
            pos += 1
        name = src[start:pos]
        if not name:
            raise self._error(f"malformed attribute in <{tag}>")
        while pos < n and src[pos] in _WHITESPACE:
            pos += 1
        if pos >= n or src[pos] != "=":
            raise self._error(f"attribute '{name}' in <{tag}> has no value")
        pos += 1
        while pos < n and src[pos] in _WHITESPACE:
            pos += 1
        if pos >= n or src[pos] not in "\"'":
            raise self._error(f"attribute '{name}' value must be quoted")
        quote = src[pos]
        end = src.find(quote, pos + 1)
        if end == -1:
            raise self._error(f"unterminated value for attribute '{name}'")
        raw = src[pos + 1 : end]
        if "<" in raw:
            raise self._error(f"'<' not allowed in attribute value of '{name}'")
        if self._suspect:
            self._check_chars(raw, self._pos)
        attributes.append((name, unescape(raw)))
        return end + 1

    # -- character data ----------------------------------------------------

    def _lex_text(self) -> TextToken:
        offset = self._pos
        src = self._src
        end = src.find("<", offset)
        if end == -1:
            end = len(src)
        raw = src[offset:end]
        self._pos = end
        if self._suspect:
            if "]]>" in raw:
                raise self._error("']]>' not allowed in character data", offset)
            self._check_chars(raw, offset)
        if "&" not in raw:
            return TextToken(src, offset, raw)
        return TextToken(src, offset, unescape(raw))

    # -- diagnostics -------------------------------------------------------

    def _error(self, message: str, offset: int | None = None) -> XmlWellFormednessError:
        line, column = position_at(self._src, self._pos if offset is None else offset)
        return XmlWellFormednessError(message, line, column)

    def _check_chars(self, text: str, offset: int) -> None:
        match = find_illegal_char(text)
        if match is not None:
            raise self._error(f"illegal character U+{ord(match.group()):04X}", offset)

    def _parse_pseudo_attributes(self, body: str, offset: int) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        i = 0
        n = len(body)
        while i < n:
            while i < n and body[i] in _WHITESPACE:
                i += 1
            if i >= n:
                break
            eq = body.find("=", i)
            if eq == -1:
                raise self._error("malformed XML declaration", offset)
            name = body[i:eq].strip(_WHITESPACE)
            j = eq + 1
            while j < n and body[j] in _WHITESPACE:
                j += 1
            if j >= n or body[j] not in "\"'":
                raise self._error("malformed XML declaration", offset)
            quote = body[j]
            end = body.find(quote, j + 1)
            if end == -1:
                raise self._error("malformed XML declaration", offset)
            out.append((name, body[j + 1 : end]))
            i = end + 1
        return out


def tokenize(source: str) -> Iterator[Token]:
    """Tokenize a complete XML document string."""
    return Lexer(source).tokens()
