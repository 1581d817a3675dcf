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
from typing import Any, Callable

from repro.errors import SerializationError
from repro.soap.constants import XSI_NIL_ATTR, XSI_TYPE_ATTR
from repro.soap.multiref import HREF_ATTR, ID_ATTR
from repro.xmlcore.qname import is_ncname
from repro.xmlcore.tree import AttrItems, Element, new_element

INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _typed(xsi_type: str) -> AttrItems:
    return ((XSI_TYPE_ATTR, xsi_type),)


# One attribute tuple per xsi:type, shared by every element encoded
# with it (see new_element: attribute tuples are never mutated).
_NIL: AttrItems = ((XSI_NIL_ATTR, "true"),)
_BOOLEAN = _typed("xsd:boolean")
_INT = _typed("xsd:int")
_LONG = _typed("xsd:long")
_INTEGER = _typed("xsd:integer")
_DOUBLE = _typed("xsd:double")
_STRING = _typed("xsd:string")
_BASE64 = _typed("xsd:base64Binary")
_DATETIME = _typed("xsd:dateTime")
_DATE = _typed("xsd:date")
_TIME = _typed("xsd:time")
_ARRAY = _typed("SOAP-ENC:Array")
_STRUCT = _typed("xsd:struct")


def encode_value(tag: str, value: Any) -> Element:
    """Encode ``value`` into an element named ``tag`` (Clark or local)."""
    return (_ENCODERS.get(type(value)) or _encoder_for(value))(tag, value)


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


# -- encoders: (tag, value) -> Element ------------------------------------


def _encode_nil(tag: str, value: None) -> Element:
    return new_element(tag, _NIL, [])


def _encode_boolean(tag: str, value: bool) -> Element:
    return new_element(tag, _BOOLEAN, ["true" if value else "false"])


def _encode_int(tag: str, value: int) -> Element:
    if INT32_MIN <= value <= INT32_MAX:
        attrs = _INT
    elif INT64_MIN <= value <= INT64_MAX:
        attrs = _LONG
    else:
        attrs = _INTEGER
    return new_element(tag, attrs, [str(value)])


def _encode_float(tag: str, value: float) -> Element:
    if math.isnan(value):
        text = "NaN"
    elif math.isinf(value):
        text = "INF" if value > 0 else "-INF"
    else:
        text = repr(value)
    return new_element(tag, _DOUBLE, [text])


def _encode_string(tag: str, value: str) -> Element:
    return new_element(tag, _STRING, [value] if value else [])


def _encode_bytes(tag: str, value: bytes) -> Element:
    return new_element(tag, _BASE64, [base64.b64encode(value).decode("ascii")])


def _encode_datetime(tag: str, value: datetime) -> Element:
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    return new_element(tag, _DATETIME, [value.isoformat()])


def _encode_date(tag: str, value: date) -> Element:
    return new_element(tag, _DATE, [value.isoformat()])


def _encode_time(tag: str, value: time) -> Element:
    return new_element(tag, _TIME, [value.isoformat()])


def _encode_array(tag: str, value: "list | tuple") -> Element:
    return new_element(tag, _ARRAY, [encode_value("item", item) for item in value])


def _encode_struct(tag: str, value: dict) -> Element:
    members = []
    for key, member in value.items():
        if not isinstance(key, str) or not key:
            raise SerializationError(
                f"struct member names must be non-empty strings, got {key!r}"
            )
        if not is_ncname(key):  # it becomes an element name
            raise SerializationError(f"struct member name {key!r} is not an XML name")
        members.append(encode_value(key, member))
    return new_element(tag, _STRUCT, members)


# Exact type -> encoder.  The order is the subclass order too (an
# IntEnum, a str subclass, a namedtuple): bool before int and datetime
# before date, each the other's subclass.
_ENCODERS: dict[type, Callable[[str, Any], Element]] = {
    type(None): _encode_nil,
    bool: _encode_boolean,
    int: _encode_int,
    float: _encode_float,
    str: _encode_string,
    bytes: _encode_bytes,
    datetime: _encode_datetime,
    date: _encode_date,
    time: _encode_time,
    list: _encode_array,
    tuple: _encode_array,
    dict: _encode_struct,
}


def _encoder_for(value: Any) -> Callable[[str, Any], Element]:
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
