"""Unit tests for XSD typed-value encoding/decoding."""

import base64
import math
from datetime import datetime, timezone

import pytest

from repro.errors import SerializationError
from repro.soap.constants import XSI_NIL_ATTR, XSI_TYPE_ATTR
from repro.soap.xsdtypes import (
    decode_value,
    encode_value,
    python_type_to_xsd,
)
from repro.xmlcore import parse
from repro.xmlcore.writer import serialize


def round_trip(value):
    element = encode_value("v", value)
    # go through real bytes to prove wire fidelity
    reparsed = parse(serialize(element))
    return decode_value(reparsed)


class TestScalars:
    @pytest.mark.parametrize("value", ["", "hello", "北京 weather", "a<b&c"])
    def test_string(self, value):
        assert round_trip(value) == value

    @pytest.mark.parametrize("value", [0, 1, -1, 2**31 - 1, -(2**31), 2**40, 2**70])
    def test_int(self, value):
        assert round_trip(value) == value

    def test_int_type_widths(self):
        assert encode_value("v", 5).get(XSI_TYPE_ATTR) == "xsd:int"
        assert encode_value("v", 2**40).get(XSI_TYPE_ATTR) == "xsd:long"
        assert encode_value("v", 2**70).get(XSI_TYPE_ATTR) == "xsd:integer"

    @pytest.mark.parametrize("value", [0.0, 1.5, -2.25, 1e300, 5e-324])
    def test_float(self, value):
        assert round_trip(value) == value

    def test_float_specials(self):
        assert round_trip(math.inf) == math.inf
        assert round_trip(-math.inf) == -math.inf
        assert math.isnan(round_trip(math.nan))

    @pytest.mark.parametrize("value", [True, False])
    def test_bool(self, value):
        assert round_trip(value) is value

    def test_bool_not_confused_with_int(self):
        assert encode_value("v", True).get(XSI_TYPE_ATTR) == "xsd:boolean"

    def test_bytes(self):
        assert round_trip(b"\x00\x01\xffbinary") == b"\x00\x01\xffbinary"

    def test_empty_bytes(self):
        assert round_trip(b"") == b""

    def test_none(self):
        element = encode_value("v", None)
        assert element.get(XSI_NIL_ATTR) == "true"
        assert round_trip(None) is None

    def test_datetime_aware(self):
        dt = datetime(2006, 9, 25, 12, 30, 45, tzinfo=timezone.utc)
        assert round_trip(dt) == dt

    def test_datetime_naive_becomes_utc(self):
        dt = datetime(2006, 9, 25, 12, 30, 45)
        assert round_trip(dt) == dt.replace(tzinfo=timezone.utc)


class TestComposites:
    def test_list(self):
        assert round_trip([1, "two", 3.0]) == [1, "two", 3.0]

    def test_empty_list(self):
        assert round_trip([]) == []

    def test_tuple_decodes_as_list(self):
        assert round_trip((1, 2)) == [1, 2]

    def test_nested_list(self):
        assert round_trip([[1, 2], [3]]) == [[1, 2], [3]]

    def test_dict(self):
        value = {"city": "Beijing", "temp": 21, "sunny": True}
        assert round_trip(value) == value

    def test_nested_struct(self):
        value = {"flight": {"from": "PEK", "seats": [1, 2]}, "price": 99.5}
        assert round_trip(value) == value

    def test_list_with_none(self):
        assert round_trip([None, "x"]) == [None, "x"]

    def test_dict_bad_key_raises(self):
        with pytest.raises(SerializationError):
            encode_value("v", {1: "x"})

    def test_dict_empty_key_raises(self):
        with pytest.raises(SerializationError):
            encode_value("v", {"": "x"})

    @pytest.mark.parametrize("key", ["a b", "1a", "a:b", "{urn:x}a", "a<"])
    def test_dict_key_that_is_not_an_xml_name_raises(self, key):
        # at encode time, not when the envelope is written
        with pytest.raises(SerializationError, match="not an XML name"):
            encode_value("v", {"ok": 1, key: 2})

    def test_duplicate_struct_member_raises(self):
        element = parse(
            '<v xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
            'xsi:type="xsd:struct"><a>1</a><b>x</b><a>2</a></v>'
        )
        with pytest.raises(SerializationError, match="<v> repeats a member name"):
            decode_value(element)

    def test_duplicate_member_under_two_namespaces_raises(self):
        # members are keyed by local name, whatever namespace they carry
        element = parse('<v><a>1</a><p:a xmlns:p="urn:p">2</p:a></v>')
        with pytest.raises(SerializationError, match="repeats a member name"):
            decode_value(element)


class TestErrors:
    def test_unencodable_type_raises(self):
        with pytest.raises(SerializationError):
            encode_value("v", object())

    def test_unknown_xsi_type_raises(self):
        element = parse('<v xmlns:x="ns" xsi:type="xsd:duration" '
                        'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">P1D</v>')
        with pytest.raises(SerializationError):
            decode_value(element)

    def test_bad_int_text_raises(self):
        element = encode_value("v", 1)
        element.children[:] = ["not-a-number"]
        with pytest.raises(SerializationError):
            decode_value(element)

    def test_bad_base64_raises(self):
        element = encode_value("v", b"x")
        element.children[:] = ["@@@not base64@@@"]
        with pytest.raises(SerializationError):
            decode_value(element)

    def test_bad_boolean_raises(self):
        element = encode_value("v", True)
        element.children[:] = ["maybe"]
        with pytest.raises(SerializationError):
            decode_value(element)


class TestUntypedDecoding:
    def test_untyped_leaf_is_string(self):
        assert decode_value(parse("<v>plain</v>")) == "plain"

    def test_untyped_with_children_is_struct(self):
        assert decode_value(parse("<v><a>1</a><b>2</b></v>")) == {"a": "1", "b": "2"}

    def test_untyped_struct_with_duplicate_member_raises(self):
        with pytest.raises(SerializationError, match="<v> repeats a member name"):
            decode_value(parse("<v><a>1</a><a>2</a></v>"))


class TestTypeNames:
    def test_python_type_to_xsd(self):
        assert python_type_to_xsd(str) == "xsd:string"
        assert python_type_to_xsd(int) == "xsd:int"
        assert python_type_to_xsd(set) == "xsd:anyType"


def _typed(xsi_type: str, text: str):
    return parse(
        f'<v xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="{xsi_type}">{text}</v>'
    )


class TestLexicalSpace:
    """Leaves read exactly the XSD lexical space, not all that ``int()``,
    ``float()`` and a strict base64 decode make of text."""

    @pytest.mark.parametrize("text", ["1_000", "١٢", "１２"])
    def test_int_takes_ascii_digits_only(self, text):
        with pytest.raises(SerializationError, match="not in the xsd integer lexical space"):
            decode_value(_typed("xsd:int", text))

    @pytest.mark.parametrize("text", [" +42 ", "-7", "007"])
    def test_int_keeps_its_lexical_space(self, text):
        assert decode_value(_typed("xsd:int", text)) == int(text)

    @pytest.mark.parametrize("text", ["nan", "Infinity", "inf", "-inf", "+INF", "1_0.5", "١.٥"])
    def test_double_takes_only_the_xsd_spellings(self, text):
        with pytest.raises(SerializationError, match="not in the xsd double lexical space"):
            decode_value(_typed("xsd:double", text))

    @pytest.mark.parametrize(
        "text, value", [("1e3", 1000.0), (" .5", 0.5), ("5.", 5.0), ("-1.5E-2", -0.015), ("-INF", -math.inf)]
    )
    def test_double_keeps_its_lexical_space(self, text, value):
        assert decode_value(_typed("xsd:double", text)) == value

    def test_double_nan(self):
        assert math.isnan(decode_value(_typed("xsd:double", "NaN")))

    def test_base64_broken_into_lines(self):
        # what MIME-style encoders emit: 76-character lines
        data = bytes(range(256))
        text = base64.encodebytes(data).decode("ascii")
        assert "\n" in text
        assert decode_value(_typed("xsd:base64Binary", text)) == data
        assert decode_value(_typed("xsd:base64Binary", " QUJD\r\n\tREVG ")) == b"ABCDEF"

    def test_base64_still_rejects_what_is_not_base64(self):
        with pytest.raises(SerializationError, match="as base64Binary"):
            decode_value(_typed("xsd:base64Binary", "QU JD@"))
