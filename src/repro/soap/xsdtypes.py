"""XSD-typed value encoding between Python objects and XML elements.

The encoding follows SOAP section-5 style RPC conventions: each value
element carries an ``xsi:type`` attribute so a receiver can decode it
without a schema.  Supported Python types:

========================  ==========================
Python                    xsi:type
========================  ==========================
``str``                   ``xsd:string``
``bool``                  ``xsd:boolean``
``int``                   ``xsd:int`` / ``xsd:long``
``float``                 ``xsd:double``
``bytes``                 ``xsd:base64Binary``
``datetime.datetime``     ``xsd:dateTime``
``date`` / ``time``       ``xsd:date`` / ``xsd:time``
``None``                  ``xsi:nil="true"``
``list`` / ``tuple``      ``SOAP-ENC:Array`` of <item>
``dict`` (NCName keys)    ``xsd:struct`` of named members
========================  ==========================

What a value's markup looks like is decided per type, once, in two
static tables: exact Python type -> encoder (``_ENCODERS``) and local
``xsi:type`` name -> decoder (``_DECODERS``).  Nothing is cached: no
table grows, and nothing is keyed on a value or on received text.

One encoder, text out: :func:`render_value` appends a value's markup
to a list of parts, ``xsi:type`` under the prefix ``xsi`` (the writer
checks that binding before it splices them); a tree is a parse of that
text (:func:`encode_value`).  Known deviation: ``SOAP-ENC:Array`` uses
a prefix no envelope declares (``STANDARD_NSMAP`` binds SOAP-ENV, xsd,
xsi); receivers read only the local part, and declaring it costs 59 B.

One decoder, two sources: a leaf decoder takes text, a compound's its
name and member ``(name, value)`` pairs; :func:`_rule_of` picks one
from an element's attributes.  :func:`decode_value` feeds the table
from an ``Element`` (reading an Array's values straight off its
children), the scanner's value walk through :func:`value_rule`.  Leaves
accept exactly the XSD lexical space.
"""

from __future__ import annotations

import base64
import binascii
import math
from datetime import date, datetime, time, timezone
from operator import methodcaller
from typing import Any, Callable

from repro.errors import SerializationError
from repro.soap.constants import XSI_NIL_ATTR, XSI_NS, XSI_TYPE_ATTR
from repro.soap.multiref import HREF_ATTR, ID_ATTR
from repro.xmlcore.escape import escape_text
from repro.xmlcore.qname import is_ncname
from repro.xmlcore.tree import AttrItems, Element
from repro.xmlcore.treebuilder import XmlScanner

INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def render_value(parts: list[str], tag: str, value: Any) -> None:
    """Append the markup of ``value`` as an element named ``tag`` (a
    local name) to ``parts``; each escaped text run is a part of its own."""
    (_ENCODERS.get(type(value)) or _encoder_for(value))(parts, tag, value)


def encode_value(tag: str, value: Any) -> Element:
    """``value`` as an element named ``tag`` (a local name): the tree its
    markup parses to."""
    parts: list[str] = []
    render_value(parts, tag, value)
    return parse_values(parts)[0]


def parse_values(parts: list[str]) -> list:
    """The elements ``parts`` render.  The markup is this codec's own, so
    its characters go unchecked: a C0 control reads back as written."""
    scanner = XmlScanner(f'<v xmlns:xsi="{XSI_NS}">{"".join(parts)}</v>')
    scanner._lexer._suspect = False
    return scanner.document().children


def decode_value(element: Element) -> Any:
    """Decode an element produced by :func:`encode_value` back to Python:
    the tree source of the one decoder."""
    decode = _rule_of(element.items())
    if decode is None:
        xsi_type = element.get(XSI_TYPE_ATTR)
        if xsi_type is not None:
            raise SerializationError(f"unsupported xsi:type '{xsi_type}'")
        # literal style: a leaf is its text, element children a struct
        decode = _decode_struct if element.element_children() else str
    elif decode is _decode_nil:
        return None
    try:
        # compounds straight from the children: no member list, no pair
        # for an Array's members, whose names nothing reads
        if decode is _decode_array:
            return [decode_value(c) for c in element.children if type(c) is not str]
        if decode is _decode_struct:
            return decode(element.tag, [
                (c.tag.rpartition("}")[2], decode_value(c))
                for c in element.children if type(c) is not str
            ])
        return decode(element.text)
    except (ValueError, binascii.Error) as exc:
        xsi_type = element.get(XSI_TYPE_ATTR)
        local = xsi_type.rpartition(":")[2] if xsi_type else None
        raise SerializationError(
            f"cannot decode <{element.local_name}> as {local}: {exc}"
        ) from None


def value_rule(attributes: AttrItems) -> tuple[Callable, bool] | None:
    """How the scanner's value walk decodes an element with these
    attributes, ``(decode, compound)``; None for what only the tree
    source reads: untyped or unsupported values, multiref href/id."""
    for name, _ in attributes:
        if name == HREF_ATTR or name == ID_ATTR:
            return None
    decode = _rule_of(attributes)
    return None if decode is None else (decode, decode in _COMPOUNDS)


def _rule_of(attributes: AttrItems) -> Callable | None:
    """The decoder for an element with these attributes: nil's wherever
    xsi:nil is true, None for an untyped value or an unsupported type."""
    xsi_type = None
    for name, value in attributes:
        if name == XSI_TYPE_ATTR:
            xsi_type = value
        elif name == XSI_NIL_ATTR and value in ("true", "1"):
            return _decode_nil
    return None if xsi_type is None else _DECODERS.get(xsi_type.rpartition(":")[2])


# -- encoders: append the markup of (tag, value) to the parts ---------------


def _encode_int(parts: list, tag: str, value: int) -> None:
    if INT32_MIN <= value <= INT32_MAX:
        xsi_type = "int"
    elif INT64_MIN <= value <= INT64_MAX:
        xsi_type = "long"
    else:
        xsi_type = "integer"
    parts.append(f'<{tag} xsi:type="xsd:{xsi_type}">{value!s}</{tag}>')


def _encode_leaf(xsi_type: str, text_of: Callable[[Any], str]) -> Callable:
    """The rule of a type whose text ``text_of`` spells; empty is no content."""
    attribute = f' xsi:type="{xsi_type}"'

    def encode(parts: list, tag: str, value: Any) -> None:
        text = text_of(value)
        if text:
            parts += (f"<{tag}{attribute}>", text, f"</{tag}>")
        else:
            parts.append(f"<{tag}{attribute}/>")

    return encode


def _double_text(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "INF" if value > 0 else "-INF"
    return repr(value)


def _isoformat_utc(value: datetime) -> str:
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    return value.isoformat()


def _encode_array(parts: list, tag: str, value: "list | tuple") -> None:
    if not value:
        parts.append(f'<{tag} xsi:type="SOAP-ENC:Array"/>')
        return
    parts.append(f'<{tag} xsi:type="SOAP-ENC:Array">')
    for item in value:
        render_value(parts, "item", item)
    parts.append(f"</{tag}>")


def _encode_struct(parts: list, tag: str, value: dict) -> None:
    if not value:
        parts.append(f'<{tag} xsi:type="xsd:struct"/>')
        return
    parts.append(f'<{tag} xsi:type="xsd:struct">')
    for key, member in value.items():
        if not isinstance(key, str) or not key:
            raise SerializationError(f"struct member names must be non-empty strings, got {key!r}")
        if not is_ncname(key):  # it becomes an element name
            raise SerializationError(f"struct member name {key!r} is not an XML name")
        render_value(parts, key, member)
    parts.append(f"</{tag}>")


# Exact type -> encoder.  The order is the subclass order too (an
# IntEnum, a str subclass, a namedtuple): bool before int and datetime
# before date, each the other's subclass.
_ENCODERS: dict[type, Callable[[list, str, Any], None]] = {
    type(None): lambda parts, tag, value: parts.append(f'<{tag} xsi:nil="true"/>'),
    bool: _encode_leaf("xsd:boolean", lambda value: "true" if value else "false"),
    int: _encode_int,
    float: _encode_leaf("xsd:double", _double_text),
    str: _encode_leaf("xsd:string", escape_text),
    bytes: _encode_leaf("xsd:base64Binary", lambda value: base64.b64encode(value).decode("ascii")),
    datetime: _encode_leaf("xsd:dateTime", _isoformat_utc),
    date: _encode_leaf("xsd:date", methodcaller("isoformat")),
    time: _encode_leaf("xsd:time", methodcaller("isoformat")),
    list: _encode_array,
    tuple: _encode_array,
    dict: _encode_struct,
}


def _encoder_for(value: Any) -> Callable[[list, str, Any], None]:
    """The table entry a value of no listed exact type is served by."""
    for base, encoder in _ENCODERS.items():
        if isinstance(value, base):
            return encoder
    raise SerializationError(f"cannot encode value of type {type(value).__name__} to XSD")


# -- decoders: text -> value (leaves), name and pairs -> value (compounds) --

_SPECIAL_DOUBLES = {"NaN": math.nan, "INF": math.inf, "-INF": -math.inf}
_XML_SPACE = str.maketrans("", "", " \t\r\n")


def _decode_nil(text: str) -> None:
    return None


def _decode_int(text: str) -> int:
    text = text.strip()
    value = int(text)
    if "_" in text or not text.isascii():  # int() reads both, XSD neither
        raise ValueError(f"'{text}' is not in the xsd integer lexical space")
    return value


def _decode_float(text: str) -> float:
    text = text.strip()
    special = _SPECIAL_DOUBLES.get(text)
    if special is not None:
        return special
    value = float(text)
    # float() also reads "1_0.5", non-ASCII digits and any-case inf / nan /
    # infinity; the XSD spellings are the three above, and none has an n
    if "_" in text or "n" in text or "N" in text or not text.isascii():
        raise ValueError(f"'{text}' is not in the xsd double lexical space")
    return value


def _decode_boolean(text: str) -> bool:
    text = text.strip()
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise ValueError(f"'{text}' is not an xsd:boolean")


def _decode_bytes(text: str) -> bytes:
    # whitespace is no data: MIME-style encoders break base64 into lines
    return base64.b64decode(text.translate(_XML_SPACE).encode("ascii"), validate=True)


def _decode_datetime(text: str) -> datetime:
    text = text.strip()
    if text.endswith("Z"):  # which Python < 3.11 fromisoformat did not accept
        text = text[:-1] + "+00:00"
    return datetime.fromisoformat(text)


def _decode_date(text: str) -> date:
    return date.fromisoformat(text.strip())


def _decode_time(text: str) -> time:
    return time.fromisoformat(text.strip())


def _decode_array(name: str, pairs: list) -> list:
    return [value for _, value in pairs]


def _decode_struct(name: str, pairs: list) -> dict[str, Any]:
    struct = dict(pairs)
    if len(struct) != len(pairs):
        local = name.rpartition("}")[2]  # the tree source passes a Clark tag
        raise SerializationError(f"struct <{local}> repeats a member name")
    return struct


_COMPOUNDS = (_decode_array, _decode_struct)

# Local part of the xsi:type (any prefix) -> decoder.
_DECODERS: dict[str, Callable] = {
    "string": str,
    **dict.fromkeys(
        ("int", "long", "integer", "short", "byte",
         "unsignedInt", "unsignedLong", "unsignedShort", "unsignedByte"),
        _decode_int,
    ),
    **dict.fromkeys(("double", "float", "decimal"), _decode_float),
    "boolean": _decode_boolean,
    "base64Binary": _decode_bytes,
    "dateTime": _decode_datetime,
    "date": _decode_date,
    "time": _decode_time,
    "Array": _decode_array,
    "struct": _decode_struct,
}


_ANNOTATION_TYPES = {
    str: "xsd:string",
    int: "xsd:int",
    float: "xsd:double",
    bool: "xsd:boolean",
    bytes: "xsd:base64Binary",
    datetime: "xsd:dateTime",
    date: "xsd:date",
    time: "xsd:time",
    list: "SOAP-ENC:Array",
    dict: "xsd:struct",
}


def python_type_to_xsd(python_type: type) -> str:
    """Map an annotation to its xsd type name (WSDL generation)."""
    return _ANNOTATION_TYPES.get(python_type, "xsd:anyType")
