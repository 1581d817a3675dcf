"""Character escaping for XML text, attributes and CDATA.

Implements the five predefined XML entities plus numeric character
references.  The unescape side accepts decimal (``&#65;``) and hexadecimal
(``&#x41;``) references, which real SOAP toolkits emit for non-ASCII data.

Escaping probes first (clean strings return unchanged) and only then
runs chained ``str.replace``.  Legality is probed in place, allocating
nothing the size of the text: one ``in`` (a C memchr scan) per illegal
C0 control, and on non-ASCII text two more for U+FFFE/U+FFFF and a
strict UTF-8 encode of 256-character slices, which raises on a lone
surrogate.  Those are all the characters XML 1.0 forbids, so the probe
is exact; the regex runs only on text the probe flagged, to locate the
character for the error message.  :func:`has_suspect_chars` is the
once-per-document form of that probe (plus ``]]>``) that the readers
run instead of checking every text run.

Unescaping resolves the five predefined entities with one
``str.replace`` each when they are the only references, and otherwise
copies clean spans in bulk between ``&`` occurrences.
"""

from __future__ import annotations

import re
from typing import Match

from repro.errors import XmlWellFormednessError

_PREDEFINED = (("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'), ("&apos;", "'"), ("&amp;", "&"))
_NAMED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

# Characters legal in XML 1.0 documents (tab, LF, CR, and >= 0x20 minus
# the surrogate block and 0xFFFE/0xFFFF).
_ILLEGAL_XML_RE = re.compile(
    "[^\t\n\r\u0020-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"
)


# The C0 controls XML forbids, one ``in`` scan each.
_ILLEGAL_C0 = tuple(chr(code) for code in range(0x20) if code not in (0x9, 0xA, 0xD))
# Characters per slice of the surrogate probe: a slice and its encoding
# take about 2 KB at most, whatever the string's width.
_SURROGATE_SLICE = 256

_ATTR_SPECIAL_RE = re.compile("[&<>\"']")


def is_xml_char(code: int) -> bool:
    """Return True if the code point may appear in an XML 1.0 document."""
    if code in (0x9, 0xA, 0xD):
        return True
    if 0x20 <= code <= 0xD7FF:
        return True
    if 0xE000 <= code <= 0xFFFD:
        return True
    return 0x10000 <= code <= 0x10FFFF


def find_illegal_char(text: str) -> Match[str] | None:
    """First character illegal in XML 1.0, as a regex match, or None.

    The probe answers first; the regex runs only on text it flags, to
    pinpoint the character for the diagnostic.
    """
    if not _has_illegal_chars(text):
        return None
    return _ILLEGAL_XML_RE.search(text)


def _has_illegal_chars(text: str) -> bool:
    """True when ``text`` holds a character illegal in XML 1.0.

    Every scan runs in C, and nothing larger than one slice is copied,
    so a whole document costs no document-sized allocation.
    """
    if any(map(text.__contains__, _ILLEGAL_C0)):
        return True
    if text.isascii():
        return False
    if "\ufffe" in text or "\uffff" in text:
        return True
    try:
        for start in range(0, len(text), _SURROGATE_SLICE):
            text[start : start + _SURROGATE_SLICE].encode()
    except UnicodeEncodeError:
        return True
    return False


def has_suspect_chars(document: str) -> bool:
    """True when ``document`` holds ``]]>`` or an illegal character
    anywhere, so a reader must check each run to say where and whether
    it matters (``]]>`` is legal outside character data).  False — the
    usual answer — lets a reader skip every per-run check."""
    return ("]" in document and "]]>" in document) or _has_illegal_chars(document)


def escape_text(value: str) -> str:
    """Escape character data appearing between tags."""
    # The ``in`` probes look redundant with the replaces, but on large
    # non-ASCII strings a no-op ``str.replace`` is far slower than a
    # containment scan, and clean payloads are the common case.
    if "&" not in value and "<" not in value and ">" not in value:
        return value
    return (
        value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def escape_attribute(value: str) -> str:
    """Escape character data appearing inside a double-quoted attribute."""
    if _ATTR_SPECIAL_RE.search(value) is None:
        return value
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("'", "&apos;")
    )


def unescape(value: str) -> str:
    """Resolve named and numeric entity references in ``value``.

    Raises :class:`XmlWellFormednessError` on unterminated or unknown
    references, matching what a conforming parser must do.
    """
    amp = value.find("&")
    if amp == -1:
        return value
    count = value.count
    if count("&") == (
        count("&lt;") + count("&gt;") + count("&amp;") + count("&quot;") + count("&apos;")
    ):
        # every '&' starts a predefined reference: one replace per entity
        # present, '&amp;' last so that what it yields is never read again
        for reference, char in _PREDEFINED:
            if reference in value:
                value = value.replace(reference, char)
        return value
    out: list[str] = []
    i = 0
    while amp != -1:
        out.append(value[i:amp])
        end = value.find(";", amp + 1)
        if end == -1:
            raise XmlWellFormednessError(f"unterminated entity reference at offset {amp}")
        body = value[amp + 1 : end]
        if not body:
            raise XmlWellFormednessError("empty entity reference '&;'")
        if body[0] == "#":
            if body.startswith(("#x", "#X")):
                try:
                    code = int(body[2:], 16)
                except ValueError:
                    raise XmlWellFormednessError(
                        f"bad hex character reference '&{body};'"
                    ) from None
            else:
                try:
                    code = int(body[1:], 10)
                except ValueError:
                    raise XmlWellFormednessError(
                        f"bad decimal character reference '&{body};'"
                    ) from None
            out.append(_charref(code, body))
        else:
            try:
                out.append(_NAMED_ENTITIES[body])
            except KeyError:
                raise XmlWellFormednessError(f"unknown entity '&{body};'") from None
        i = end + 1
        amp = value.find("&", i)
    out.append(value[i:])
    return "".join(out)


def _charref(code: int, body: str) -> str:
    if not is_xml_char(code):
        raise XmlWellFormednessError(f"character reference '&{body};' is not a legal XML character")
    return chr(code)
