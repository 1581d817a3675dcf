"""The RPC typed-value codec as it was before PR 19: the reference.

``encode_value`` / ``_encode_into`` / ``decode_value`` and their scalar
helpers are the ``isinstance`` / ``if local ==`` ladders of
``repro.soap.xsdtypes`` at the parent commit, moved here verbatim when
the production codec became table-driven.  Test-only:
``tests/properties/test_codec_properties.py`` holds the tables to
them — equal bytes out, ``strict_equal`` values back, the same
exception type and message — except for the two bug fixes that PR
made on purpose (struct member names must be NCNames; duplicate
struct members are an error), which the differential asserts as such.
"""

from __future__ import annotations

import base64
import binascii
import math
from datetime import date, datetime, time, timezone
from typing import Any

from repro.errors import SerializationError
from repro.soap.constants import XSI_NIL_ATTR, XSI_TYPE_ATTR
from repro.xmlcore.tree import Element

INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def encode_value(tag: str, value: Any) -> Element:
    """Encode ``value`` into an element named ``tag`` (Clark or local)."""
    element = Element(tag)
    _encode_into(element, value)
    return element


def _encode_into(element: Element, value: Any) -> None:
    if value is None:
        element.set(XSI_NIL_ATTR, "true")
    elif isinstance(value, bool):  # bool first: it subclasses int
        element.set(XSI_TYPE_ATTR, "xsd:boolean")
        element.append("true" if value else "false")
    elif isinstance(value, int):
        if INT32_MIN <= value <= INT32_MAX:
            element.set(XSI_TYPE_ATTR, "xsd:int")
        elif INT64_MIN <= value <= INT64_MAX:
            element.set(XSI_TYPE_ATTR, "xsd:long")
        else:
            element.set(XSI_TYPE_ATTR, "xsd:integer")
        element.append(str(value))
    elif isinstance(value, float):
        element.set(XSI_TYPE_ATTR, "xsd:double")
        element.append(_encode_double(value))
    elif isinstance(value, str):
        element.set(XSI_TYPE_ATTR, "xsd:string")
        if value:
            element.append(value)
    elif isinstance(value, bytes):
        element.set(XSI_TYPE_ATTR, "xsd:base64Binary")
        element.append(base64.b64encode(value).decode("ascii"))
    elif isinstance(value, datetime):
        element.set(XSI_TYPE_ATTR, "xsd:dateTime")
        element.append(_encode_datetime(value))
    elif isinstance(value, date):
        element.set(XSI_TYPE_ATTR, "xsd:date")
        element.append(value.isoformat())
    elif isinstance(value, time):
        element.set(XSI_TYPE_ATTR, "xsd:time")
        element.append(value.isoformat())
    elif isinstance(value, (list, tuple)):
        element.set(XSI_TYPE_ATTR, "SOAP-ENC:Array")
        for item in value:
            child = element.subelement("item")
            _encode_into(child, item)
    elif isinstance(value, dict):
        element.set(XSI_TYPE_ATTR, "xsd:struct")
        for key, member in value.items():
            if not isinstance(key, str) or not key:
                raise SerializationError(
                    f"struct member names must be non-empty strings, got {key!r}"
                )
            child = element.subelement(key)
            _encode_into(child, member)
    else:
        raise SerializationError(
            f"cannot encode value of type {type(value).__name__} to XSD"
        )


def decode_value(element: Element) -> Any:
    """Decode an element produced by :func:`encode_value` back to Python."""
    if element.get(XSI_NIL_ATTR) in ("true", "1"):
        return None
    xsi_type = element.get(XSI_TYPE_ATTR)
    local = _local_type(xsi_type)
    text = element.text
    try:
        if local is None:
            # Untyped leaf: literal-style message; strings pass through,
            # element children decode as a struct.
            children = element.element_children()
            if children:
                return {c.local_name: decode_value(c) for c in children}
            return text
        if local == "string":
            return text
        if local in ("int", "long", "integer", "short", "byte",
                     "unsignedInt", "unsignedLong", "unsignedShort", "unsignedByte"):
            return int(text.strip())
        if local in ("double", "float", "decimal"):
            return _decode_double(text.strip())
        if local == "boolean":
            return _decode_boolean(text.strip())
        if local == "base64Binary":
            return base64.b64decode(text.encode("ascii"), validate=True)
        if local == "dateTime":
            return _decode_datetime(text.strip())
        if local == "date":
            return date.fromisoformat(text.strip())
        if local == "time":
            return time.fromisoformat(text.strip())
        if local == "Array":
            return [decode_value(c) for c in element.element_children()]
        if local == "struct":
            return {c.local_name: decode_value(c) for c in element.element_children()}
    except (ValueError, binascii.Error) as exc:
        raise SerializationError(
            f"cannot decode <{element.local_name}> as {local}: {exc}"
        ) from None
    raise SerializationError(f"unsupported xsi:type '{xsi_type}'")


# -- scalar codecs -------------------------------------------------------


def _encode_double(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "INF" if value > 0 else "-INF"
    return repr(value)


def _decode_double(text: str) -> float:
    if text == "NaN":
        return math.nan
    if text == "INF":
        return math.inf
    if text == "-INF":
        return -math.inf
    return float(text)


def _decode_boolean(text: str) -> bool:
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise ValueError(f"'{text}' is not an xsd:boolean")


def _encode_datetime(value: datetime) -> str:
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    return value.isoformat()


def _decode_datetime(text: str) -> datetime:
    # Accept a trailing Z, which Python <3.11 isoformat did not
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    return datetime.fromisoformat(text)


def _local_type(xsi_type: str | None) -> str | None:
    if xsi_type is None:
        return None
    _, _, local = xsi_type.rpartition(":")
    return local
