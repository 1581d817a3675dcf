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
"""

from __future__ import annotations

import base64
import binascii
import math
from datetime import date, datetime, time, timezone
from typing import Any, Callable

from repro.errors import SerializationError
from repro.soap.constants import XSI_NIL_ATTR, XSI_TYPE_ATTR
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
    """Decode an element produced by :func:`encode_value` back to Python."""
    xsi_type = None
    for name, value in element.items():
        if name == XSI_TYPE_ATTR:
            xsi_type = value
        elif name == XSI_NIL_ATTR and value in ("true", "1"):
            return None
    if xsi_type is None:
        local, decoder = None, _decode_untyped
    else:
        local = xsi_type.rpartition(":")[2]
        decoder = _DECODERS.get(local)
        if decoder is None:
            raise SerializationError(f"unsupported xsi:type '{xsi_type}'")
    try:
        return decoder(element)
    except (ValueError, binascii.Error) as exc:
        raise SerializationError(
            f"cannot decode <{element.local_name}> as {local}: {exc}"
        ) from None


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


# -- decoders: Element -> value -------------------------------------------


def _decode_string(element: Element) -> str:
    return element.text


def _decode_int(element: Element) -> int:
    return int(element.text.strip())


def _decode_float(element: Element) -> float:
    text = element.text.strip()
    if text == "NaN":
        return math.nan
    if text == "INF":
        return math.inf
    if text == "-INF":
        return -math.inf
    return float(text)


def _decode_boolean(element: Element) -> bool:
    text = element.text.strip()
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise ValueError(f"'{text}' is not an xsd:boolean")


def _decode_bytes(element: Element) -> bytes:
    return base64.b64decode(element.text.encode("ascii"), validate=True)


def _decode_datetime(element: Element) -> datetime:
    text = element.text.strip()
    if text.endswith("Z"):  # which Python < 3.11 fromisoformat did not accept
        text = text[:-1] + "+00:00"
    return datetime.fromisoformat(text)


def _decode_date(element: Element) -> date:
    return date.fromisoformat(element.text.strip())


def _decode_time(element: Element) -> time:
    return time.fromisoformat(element.text.strip())


def _decode_array(element: Element) -> list:
    return [decode_value(c) for c in element.children if isinstance(c, Element)]


def _decode_struct(element: Element) -> dict[str, Any]:
    members = [c for c in element.children if isinstance(c, Element)]
    # keyed by local name: what follows the Clark notation's brace, if any
    struct = {c.tag.rpartition("}")[2]: decode_value(c) for c in members}
    if len(struct) != len(members):
        raise SerializationError(f"struct <{element.local_name}> repeats a member name")
    return struct


def _decode_untyped(element: Element) -> Any:
    """Literal-style message: a leaf is its text, element children a struct."""
    for child in element.children:
        if isinstance(child, Element):
            return _decode_struct(element)
    return element.text


# Local part of the xsi:type (any prefix) -> decoder.
_DECODERS: dict[str, Callable[[Element], Any]] = {
    "string": _decode_string,
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
