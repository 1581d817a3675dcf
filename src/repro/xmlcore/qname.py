"""Qualified names and namespace scope tracking.

A :class:`QName` pairs a namespace URI with a local name, written in
Clark notation ``{uri}local`` when stringified.  :class:`NamespaceScope`
implements the prefix→URI stack the parser and writer both need:
declarations made on an element are visible to its subtree and popped
when the element closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import XmlNamespaceError

XML_NS = "http://www.w3.org/XML/1998/namespace"
XMLNS_NS = "http://www.w3.org/2000/xmlns/"

# NameStartChar / NameChar per XML 1.0 5th ed., restricted to the BMP
# ranges SOAP toolkits actually emit.
_NAME_START_EXTRA = "_"
def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_" or ord(ch) >= 0xC0


def _is_name_char(ch: str) -> bool:
    return _is_name_start(ch) or ch.isdigit() or ch in ".-·"


@lru_cache(maxsize=4096)
def is_ncname(name: str) -> bool:
    """True if ``name`` is a legal non-colonized XML name.

    Cached like :func:`split_prefixed`: every document declares the same
    few prefixes, and each declaration is validated on the way in."""
    if not name:
        return False
    if not _is_name_start(name[0]):
        return False
    return all(_is_name_char(c) for c in name[1:])


@lru_cache(maxsize=4096)
def split_prefixed(name: str) -> tuple[str, str]:
    """Split ``prefix:local`` into ``(prefix, local)``; prefix may be ''.

    Raises :class:`XmlNamespaceError` when either half is not an NCName
    or when more than one colon appears.

    Cached: SOAP documents repeat a handful of names thousands of
    times (the pack envelope's N identical body entries), and NCName
    validation is a per-character Python loop.
    """
    if name.count(":") > 1:
        raise XmlNamespaceError(f"name '{name}' contains multiple colons")
    prefix, sep, local = name.rpartition(":")
    if sep and not prefix:
        raise XmlNamespaceError(f"'{name}' has an empty namespace prefix")
    if not is_ncname(local) or (prefix and not is_ncname(prefix)):
        raise XmlNamespaceError(f"'{name}' is not a valid qualified name")
    return prefix, local


@dataclass(frozen=True, slots=True)
class QName:
    """An expanded XML name: ``(namespace uri, local part)``."""

    uri: str
    local: str
    # Clark rendering, precomputed at construction so ``str(qname)``
    # (which Element.tag and attribute expansion hit per node) is a
    # plain attribute read.  Excluded from equality/hash.
    clark: str = field(init=False, repr=False, compare=False, default="")

    def __post_init__(self) -> None:
        if not is_ncname(self.local):
            raise XmlNamespaceError(f"'{self.local}' is not a valid NCName")
        object.__setattr__(
            self, "clark", f"{{{self.uri}}}{self.local}" if self.uri else self.local
        )

    def __str__(self) -> str:
        return self.clark

    @classmethod
    def parse(cls, text: str) -> "QName":
        """Parse Clark notation ``{uri}local`` or a bare local name.

        Successfully parsed names are interned: :class:`QName` is
        frozen, so parser, writer and tree can share one instance per
        distinct Clark string instead of re-validating it each time.
        """
        cached = _QNAME_CACHE.get(text)
        if cached is not None:
            return cached
        if text.startswith("{"):
            end = text.find("}")
            if end == -1:
                raise XmlNamespaceError(f"unterminated Clark notation in '{text}'")
            qname = cls(text[1:end], text[end + 1 :])
        else:
            qname = cls("", text)
        if len(_QNAME_CACHE) < _QNAME_CACHE_MAX:
            _QNAME_CACHE[text] = qname
        return qname


# Interning caches.  Bounded defensively: distinct names in a
# deployment are the WSDL's vocabulary, a few hundred at most, but
# adversarial documents must not grow memory without limit.
_QNAME_CACHE: dict[str, QName] = {}
_QNAME_PAIRS: dict[tuple[str, str], QName] = {}
_QNAME_CACHE_MAX = 4096


def qname_of(uri: str, local: str) -> QName:
    """Interned ``QName(uri, local)`` — NCName validation runs once per
    distinct name instead of once per occurrence."""
    key = (uri, local)
    qname = _QNAME_PAIRS.get(key)
    if qname is None:
        qname = QName(uri, local)
        if len(_QNAME_PAIRS) < _QNAME_CACHE_MAX:
            _QNAME_PAIRS[key] = qname
    return qname


class NamespaceScope:
    """A stack of prefix→URI frames mirroring open elements.

    The root frame pre-binds the two reserved prefixes ``xml`` and
    ``xmlns`` as the spec requires.
    """

    __slots__ = ("_frames", "_version")

    def __init__(self) -> None:
        self._frames: list[dict[str, str]] = [{"xml": XML_NS, "xmlns": XMLNS_NS}]
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter bumped whenever the prefix→URI mapping
        changes (a declaration is made, or a declaring frame is popped).
        Pushing/popping *empty* frames does not bump it, so callers can
        memoize name resolution across sibling elements."""
        return self._version

    def push(self, declarations: dict[str, str] | None = None) -> None:
        """Open an element scope, optionally with new declarations."""
        frame: dict[str, str] = {}
        if declarations:
            for prefix, uri in declarations.items():
                self._check_declaration(prefix, uri)
                frame[prefix] = uri
            self._version += 1
        self._frames.append(frame)

    def declare(self, prefix: str, uri: str) -> None:
        """Add a declaration to the innermost frame."""
        self._check_declaration(prefix, uri)
        self._frames[-1][prefix] = uri
        self._version += 1

    def pop(self) -> None:
        """Close the innermost element scope."""
        if len(self._frames) == 1:
            raise XmlNamespaceError("namespace scope underflow")
        if self._frames.pop():
            self._version += 1

    def resolve(self, prefix: str) -> str:
        """Map a prefix to its URI; '' maps to the default namespace
        (which is '' when no default is in scope)."""
        for frame in reversed(self._frames):
            if prefix in frame:
                return frame[prefix]
        if prefix == "":
            return ""
        raise XmlNamespaceError(f"undeclared namespace prefix '{prefix}'")

    def prefix_for(self, uri: str) -> str | None:
        """Return some in-scope prefix bound to ``uri`` (innermost wins),
        or None.  A prefix shadowed by an inner redeclaration is skipped."""
        seen: set[str] = set()
        for frame in reversed(self._frames):
            for prefix, bound in frame.items():
                if prefix in seen:
                    continue
                seen.add(prefix)
                if bound == uri and prefix != "xmlns":
                    return prefix
        return None

    def resolve_name(self, prefixed: str, *, is_attribute: bool = False) -> QName:
        """Expand ``prefix:local`` using the current scope.

        Per the namespaces spec, an unprefixed *attribute* is in no
        namespace, while an unprefixed *element* takes the default one.
        """
        prefix, local = split_prefixed(prefixed)
        if not prefix and is_attribute:
            return qname_of("", local)
        return qname_of(self.resolve(prefix), local)

    def depth(self) -> int:
        """Number of open element scopes."""
        return len(self._frames) - 1

    def copy(self) -> "NamespaceScope":
        """An independent scope with the same frames and version."""
        twin = NamespaceScope.__new__(NamespaceScope)
        twin._frames, twin._version = [dict(frame) for frame in self._frames], self._version
        return twin

    @staticmethod
    def _check_declaration(prefix: str, uri: str) -> None:
        if prefix == "xml" and uri != XML_NS:
            raise XmlNamespaceError("prefix 'xml' cannot be rebound")
        if prefix == "xmlns":
            raise XmlNamespaceError("prefix 'xmlns' cannot be declared")
        if prefix and not uri:
            raise XmlNamespaceError(f"prefix '{prefix}' cannot be bound to the empty namespace")
        if prefix and not is_ncname(prefix):
            raise XmlNamespaceError(f"'{prefix}' is not a valid namespace prefix")
