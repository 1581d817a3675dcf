"""SAX-style push parsing, the event API the paper's dispatcher uses.

The CLUSTER'06 paper's server dispatcher "analyzes the request data,
which is parsed by parsers, such as SAX and DOM".  This module is the
SAX side: a :class:`ContentHandler` receives start/characters/end
events with names already expanded to :class:`QName`.

Two drivers are provided:

* :func:`sax_parse` — run a handler over a complete document.
* :class:`PullParser` — iterator of events, convenient for scanners
  that want to stop early (e.g. peeking whether a body is packed
  without building the whole tree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import XmlWellFormednessError
from repro.xmlcore import lexer as lx
from repro.xmlcore.treebuilder import decode_document, expand_start_tag
from repro.xmlcore.qname import NamespaceScope, QName


class ContentHandler:
    """Subclass and override the callbacks you need."""

    def start_document(self) -> None:
        """Called once before any other event."""

    def end_document(self) -> None:
        """Called once after the last event."""

    def start_element(self, name: QName, attributes: dict[str, str]) -> None:
        """An element opened, with expanded name and attributes."""

    def end_element(self, name: QName) -> None:
        """An element closed."""

    def characters(self, text: str) -> None:
        """Character data inside the current element."""

    def processing_instruction(self, target: str, data: str) -> None:
        """A processing instruction was seen."""


@dataclass(slots=True)
class StartEvent:
    name: QName
    attributes: dict[str, str]
    depth: int


@dataclass(slots=True)
class EndEvent:
    name: QName
    depth: int


@dataclass(slots=True)
class TextEvent:
    text: str
    depth: int


@dataclass(slots=True)
class PIEvent:
    target: str
    data: str
    depth: int


Event = StartEvent | EndEvent | TextEvent | PIEvent


def iterate_events(source: str | bytes) -> Iterator[Event]:
    """Yield namespace-expanded events for a complete document."""
    if isinstance(source, bytes):
        source = decode_document(source)
    scope = NamespaceScope()
    stack: list[QName] = []
    seen_root = False

    for token in lx.tokenize(source):
        if isinstance(token, lx.StartTagToken):
            if not stack and seen_root:
                raise XmlWellFormednessError(
                    "document has more than one root element", token.line, token.column
                )
            seen_root = True
            name, attributes = _expand(token, scope)
            yield StartEvent(name, attributes, len(stack))
            if token.self_closing:
                yield EndEvent(name, len(stack))
                scope.pop()
            else:
                stack.append(name)
        elif isinstance(token, lx.EndTagToken):
            if not stack:
                raise XmlWellFormednessError(
                    f"unexpected end tag </{token.name}>", token.line, token.column
                )
            name = scope.resolve_name(token.name)
            if name != stack[-1]:
                raise XmlWellFormednessError(
                    f"mismatched end tag </{token.name}>", token.line, token.column
                )
            stack.pop()
            yield EndEvent(name, len(stack))
            scope.pop()
        elif isinstance(token, (lx.TextToken, lx.CDataToken)):
            if stack:
                if token.text:
                    yield TextEvent(token.text, len(stack))
            elif token.text.strip():
                raise XmlWellFormednessError(
                    "character data outside root", token.line, token.column
                )
        elif isinstance(token, lx.PIToken):
            yield PIEvent(token.target, token.data, len(stack))

    if stack:
        raise XmlWellFormednessError(f"unclosed element <{stack[-1]}>")
    if not seen_root:
        raise XmlWellFormednessError("document contains no element")


def sax_parse(source: str | bytes, handler: ContentHandler) -> None:
    """Drive ``handler`` over the whole document."""
    handler.start_document()
    for event in iterate_events(source):
        if isinstance(event, StartEvent):
            handler.start_element(event.name, event.attributes)
        elif isinstance(event, EndEvent):
            handler.end_element(event.name)
        elif isinstance(event, PIEvent):
            handler.processing_instruction(event.target, event.data)
        else:
            handler.characters(event.text)
    handler.end_document()


class PullParser:
    """Lazily pull events; supports skipping the current subtree."""

    def __init__(self, source: str | bytes) -> None:
        self._events = iterate_events(source)
        self._pushed: list[Event] = []

    def __iter__(self) -> "PullParser":
        return self

    def __next__(self) -> Event:
        if self._pushed:
            return self._pushed.pop()
        return next(self._events)

    def push_back(self, event: Event) -> None:
        """Return an event to the front of the stream."""
        self._pushed.append(event)

    def skip_subtree(self, start: StartEvent) -> None:
        """Consume events until the element opened by ``start`` closes."""
        depth = 1
        for event in self:
            if isinstance(event, StartEvent):
                depth += 1
            elif isinstance(event, EndEvent):
                depth -= 1
                if depth == 0:
                    return
        raise XmlWellFormednessError(f"unclosed element <{start.name}>")


def _expand(token: lx.StartTagToken, scope: NamespaceScope) -> tuple[QName, dict[str, str]]:
    tag, attributes, declarations = expand_start_tag(scope, token)
    if declarations is None:
        scope.push()  # one frame per element, popped with its end event
    return QName.parse(tag), dict(attributes)
