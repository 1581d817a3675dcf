"""Character escaping for XML text, attributes and CDATA.

Implements the five predefined XML entities plus numeric character
references.  The unescape side accepts decimal (``&#65;``) and hexadecimal
(``&#x41;``) references, which real SOAP toolkits emit for non-ASCII data.

Escaping probes first (clean strings return unchanged) and only then
runs chained ``str.replace``.  Legality checking of ASCII text is a
``str.translate`` delete-table probe (one C pass + length compare); the
regex locates the bad character for the error message and is also the
probe for non-ASCII text, where ``translate`` is ten times slower than
the regex.  :func:`has_suspect_chars` is the once-per-document form of
both checks that the readers run instead of checking every text run.
Unescaping copies clean spans in bulk between ``&`` occurrences.
"""

from __future__ import annotations

import re
from typing import Match

from repro.errors import XmlWellFormednessError

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


# The ASCII part of the same set as a str.translate table: the C0
# controls minus tab/LF/CR are deleted, every other ASCII character maps
# to itself (a complete table — a missing key costs ``translate`` a
# caught LookupError per distinct character).  On ASCII text that is one
# C pass plus a length compare, about 8x faster than the regex search on
# a 100 KB payload; on non-ASCII text ``translate`` is the slower of the
# two by 10x, so there the regex is the probe.
_ASCII_CONTROLS_DELETED: dict[int, int | None] = {
    code: code if code >= 0x20 or code in (0x9, 0xA, 0xD) else None
    for code in range(0x80)
}

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

    Clean ASCII text (the overwhelmingly common case) is detected with
    the translate-table probe; the regex runs on non-ASCII text, or when
    something illegal is present, to pinpoint it for the diagnostic.
    """
    if text.isascii() and len(text.translate(_ASCII_CONTROLS_DELETED)) == len(text):
        return None
    return _ILLEGAL_XML_RE.search(text)


def has_suspect_chars(document: str) -> bool:
    """True when ``document`` holds ``]]>`` or an illegal character
    anywhere, so a reader must check each run to say where and whether
    it matters (``]]>`` is legal outside character data).  False — the
    usual answer — lets a reader skip every per-run check."""
    return ("]" in document and "]]>" in document) or (
        find_illegal_char(document) is not None
    )


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
