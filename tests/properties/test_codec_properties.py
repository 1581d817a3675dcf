"""Differential: the table-driven typed-value codec against the ladders
it replaced (``tests/soap/reference_codec.py``, the pre-PR-19 code).

Encoders must serialize to equal bytes, decoders must return equal
values — compared type-strictly, so ``None`` / ``True`` / ``1`` / ``1.0``,
``0.0`` / ``-0.0``, NaN and naive / aware datetimes are all told apart —
and whatever one side refuses the other must refuse with the same
exception type and message.  The sanctioned divergences are the bugs
fixed on purpose since, each asserted at the end of its half: struct
member names must be XML names, duplicate members are an error, and
leaves read exactly the XSD lexical space (no
underscores or non-ASCII digits in numbers, no ``inf``/``nan``
spellings beside ``INF``/``-INF``/``NaN``, whitespace in base64 is not
data).  The wire-value differential leaves out a document only where
one of these shows: the new decoder refused a number as outside the
lexical space, or a base64 leaf holds whitespace.
"""

import enum
from collections import namedtuple
from datetime import date, datetime, time, timedelta, timezone
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError, XmlNamespaceError
from repro.soap.constants import XSI_TYPE_ATTR
from repro.soap import xsdtypes
from repro.xmlcore import parse, serialize_bytes

from ..soap import reference_codec

_SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def canon(value):
    """A form in which ``==`` is type-strict: stricter than the
    benchmark oracle's ``strict_equal`` (NaN equals NaN, ``-0.0`` is not
    ``0.0``, an aware datetime is not its naive twin)."""
    if isinstance(value, dict):
        return (type(value), [(key, canon(member)) for key, member in value.items()])
    if isinstance(value, list):
        return (type(value), [canon(item) for item in value])
    return (type(value), repr(value))


def outcome(function, *args):
    """What a call did: its canonical result, or how it failed."""
    try:
        return ("returned", canon(function(*args)))
    except Exception as exc:  # the differential is about *which* exception
        return ("raised", type(exc), str(exc))


# -- encoders ---------------------------------------------------------------


class Level(enum.IntEnum):
    LOW = 1
    HUGE = 2**40


class Name(str):
    pass


class Count(int):
    pass


class Row(dict):
    pass


class Column(list):
    pass


Point = namedtuple("Point", "x y")

EDGES = [
    bound + step
    for bound in (0, -(2**31), 2**31 - 1, -(2**63), 2**63 - 1, 2**70, -(2**70))
    for step in (-1, 0, 1)
]

xml_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters="".join(chr(c) for c in range(0x20) if c not in (0x9, 0xA, 0xD))
        + "￾￿",
    ),
    max_size=20,
)
member_names = st.sampled_from(["a", "b", "c", "id", "_x", "é", "a-b", "a.b", "item"])
zones = st.sampled_from([None, timezone.utc, timezone(timedelta(hours=8)), timezone(timedelta(minutes=-90))])

encodable_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(EDGES),
    st.integers(),
    st.floats(),  # NaN, the infinities and -0.0 included
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e300]),
    xml_text,
    st.binary(max_size=20),
    st.datetimes(timezones=zones),
    st.dates(),
    st.times(timezones=zones),
    st.sampled_from(list(Level)),
    st.builds(Name, xml_text),
    st.builds(Count, st.sampled_from(EDGES)),
)
unencodable_scalars = st.sampled_from(
    [object(), {1, 2}, frozenset(), 1j, Decimal("1.5"), bytearray(b"x"), range(3), Level, len]
)


def _containers(inner):
    members = st.dictionaries(member_names, inner, max_size=4)
    items = st.lists(inner, max_size=4)
    return st.one_of(
        items,
        items.map(tuple),
        items.map(Column),
        st.builds(Point, inner, inner),
        members,
        members.map(Row),
    )


def _containers_and_bad_structs(inner):
    # member names neither codec takes: both must say so the same way
    names = st.sampled_from(["a", "", 1, None, (1, 2), b"k"])
    return st.one_of(_containers(inner), st.dictionaries(names, inner, min_size=1, max_size=2))


encodable = st.recursive(encodable_scalars, _containers, max_leaves=12)
anything = st.recursive(
    st.one_of(encodable_scalars, encodable_scalars, unencodable_scalars),
    _containers_and_bad_structs,
    max_leaves=12,
)


def _encode_with(codec, value):
    return serialize_bytes(codec.encode_value("v", value))


@_SETTINGS
@given(st.one_of(encodable, anything))
def test_encoders_write_equal_bytes_or_fail_alike(value):
    try:
        expected = _encode_with(reference_codec, value)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            _encode_with(xsdtypes, value)
        assert str(raised.value) == str(exc)
    else:
        assert _encode_with(xsdtypes, value) == expected


@_SETTINGS
@given(encodable)
def test_decoders_read_equal_values_from_encoded_bytes(value):
    document = _encode_with(reference_codec, value)
    assert outcome(xsdtypes.decode_value, parse(document)) == outcome(
        reference_codec.decode_value, parse(document)
    )


@pytest.mark.parametrize("key", ["a b", "1a", "a:b", "<a>", " ", "{urn:x}a"])
def test_sanctioned_divergence_member_names_must_be_xml_names(key):
    value = {"ok": [1, {key: 2}]}
    # The ladder let it through and the envelope then could not be written -
    # or, for a name in Clark notation, came back under another key.
    encoded = reference_codec.encode_value("v", value)
    if key.startswith("{"):
        assert reference_codec.decode_value(parse(serialize_bytes(encoded))) == {"ok": [1, {"a": 2}]}
    else:
        with pytest.raises(XmlNamespaceError):
            serialize_bytes(encoded)
    with pytest.raises(SerializationError, match="is not an XML name"):
        xsdtypes.encode_value("v", value)


# -- decoders ---------------------------------------------------------------

ROOT = (
    '<r xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
    'xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:p="urn:p">'
)
TYPES = [
    "string", "int", "long", "integer", "short", "byte", "unsignedInt", "unsignedLong",
    "unsignedShort", "unsignedByte", "double", "float", "decimal", "boolean", "base64Binary",
    "dateTime", "date", "time", "Array", "struct", "duration", "anyType", "",
]  # fmt: skip
PREFIXES = ["xsd:", "xsd:", "foo:", "SOAP-ENC:", "", "a:b:"]
NILS = ["", "", "", ' xsi:nil="true"', ' xsi:nil="1"', ' xsi:nil="false"', ' xsi:nil="0"', ' xsi:nil=""']
TEXTS = [
    "", "1", " 42 ", "\n-7\t", "+5", "1_000", "2147483648", "1.5", " 1e3 ", "NaN", " INF", "-INF",
    "inf", "nan", "true", " false ", "0", "TRUE", "maybe", "AAH/", " QUJD ", "@@@", "é",
    "2006-09-25T12:30:45+08:00", " 2006-09-25T12:30:45Z ", "2006-09-25T12:30:45", "2006-09-25",
    "12:30:45", "12:30:45+01:00", "a&amp;b", "&#233;", "<![CDATA[1]]>", "<![CDATA[ <x> ]]>",
    "<![CDATA[]]>", "<!-- c -->", "<?pi d?>", " ",
]  # fmt: skip
MEMBERS = ["a", "b", "p:c", "d", "item", "e"]


def _attributes(xsi_type, nil, nil_first):
    typed = f' xsi:type="{xsi_type}"' if xsi_type is not None else ""
    return nil + typed if nil_first else typed + nil


def _render(node, name):
    attributes, local, content = node
    parts = []
    members = iter(MEMBERS)
    for piece in content:
        if isinstance(piece, str):
            parts.append(piece)
        else:  # sibling names are distinct, except an Array's items
            parts.append(_render(piece, "item" if local == "Array" else next(members)))
    return f"<{name}{attributes}>{''.join(parts)}</{name}>"


def _nodes(content):
    return st.builds(
        lambda prefix, local, untyped, nil, nil_first, content: (
            _attributes(None if untyped else prefix + local, nil, nil_first),
            None if untyped else local,
            content,
        ),
        st.sampled_from(PREFIXES),
        st.sampled_from(TYPES),
        st.sampled_from([False, False, False, True]),
        st.sampled_from(NILS),
        st.booleans(),
        content,
    )


wire_values = st.recursive(
    _nodes(st.lists(st.sampled_from(TEXTS), max_size=3)),
    lambda inner: _nodes(st.lists(st.one_of(inner, inner, st.sampled_from(TEXTS)), max_size=5)),
    max_leaves=12,
)


def _decode_both(document):
    return (
        outcome(xsdtypes.decode_value, parse(document).element_children()[0]),
        outcome(reference_codec.decode_value, parse(document).element_children()[0]),
    )


def _holds_base64_with_whitespace(document):
    """Base64 text with whitespace in it, which only the new decoder reads."""
    return any(
        (element.get(XSI_TYPE_ATTR) or "").rpartition(":")[2] == "base64Binary"
        and any(space in element.text for space in " \t\r\n")
        for element in parse(document).iter()
    )


@_SETTINGS
@given(wire_values)
def test_decoders_read_equal_values_or_fail_alike(node):
    document = f"{ROOT}{_render(node, 'v')}</r>"
    assume(not _holds_base64_with_whitespace(document))
    new, reference = _decode_both(document)
    # The new decoder refuses a number's text as outside the XSD lexical
    # space only once int() / float() read it, as the reference did.
    assume(not (new[0] == "raised" and "lexical space" in new[2]))
    assert new == reference


@pytest.mark.parametrize(
    "value",
    [
        '<v xsi:type="foo:int">7</v>',  # a foreign prefix: only the local part counts
        '<v xsi:type="int">7</v>',
        '<v xsi:type="xsd:duration">P1D</v>',
        '<v xsi:type="">x</v>',
        '<v><a>1</a><p:b xsi:type="xsd:int">2</p:b>stray</v>',  # an untyped literal struct
        "<v>plain</v>",
        "<v/>",
        '<v xsi:nil="1"/>',
        '<v xsi:nil="true" xsi:type="xsd:int">junk</v>',  # nil wins over the type,
        '<v xsi:type="xsd:int" xsi:nil="true">junk</v>',  # in either order,
        '<v xsi:type="xsd:int" xsi:nil="false">3</v>',  # and only when it is true
        '<v xsi:nil="0">text</v>',
        '<v xsi:type="xsd:int"> 42\n</v>',
        '<v xsi:type="xsd:double">\t-INF </v>',
        '<v xsi:type="xsd:boolean"> 1 </v>',
        '<v xsi:type="xsd:int">1<![CDATA[2]]>3</v>',  # one value split across three children
        '<v xsi:type="xsd:string">a<![CDATA[<b>]]><!-- c -->d</v>',
        '<v xsi:type="xsd:string"><![CDATA[]]></v>',
        '<v xsi:type="xsd:int">1<x/>2</v>',
        '<v xsi:type="xsd:int"/>',
        '<v xsi:type="xsd:int">maybe</v>',
        '<v xsi:type="xsd:base64Binary">é</v>',
        '<v xsi:type="xsd:base64Binary">@@@</v>',
        '<v xsi:type="xsd:boolean">maybe</v>',
        '<v xsi:type="xsd:dateTime">2006-09-25T12:30:45Z</v>',
        '<v xsi:type="xsd:date">yesterday</v>',
        '<v xsi:type="SOAP-ENC:Array">text<item xsi:type="xsd:int">1</item><other>x</other></v>',
        '<v xsi:type="xsd:struct"><a xsi:type="xsd:int">bad</a></v>',  # the inner error, not rewrapped
        '<v xsi:type="xsd:struct"/>',
    ],
)
def test_decoder_cases(value):
    new, reference = _decode_both(f"{ROOT}{value}</r>")
    assert new == reference


@pytest.mark.parametrize(
    "value, last_wins",
    [
        ('<v xsi:type="xsd:struct"><a>1</a><b>x</b><a>2</a></v>', {"a": "2", "b": "x"}),
        ("<v><a>1</a><a>2</a></v>", {"a": "2"}),
        ('<v><a>1</a><p:a xsi:type="xsd:int">2</p:a></v>', {"a": 2}),
        ('<v xsi:type="SOAP-ENC:Array"><item><a>1</a><a>2</a></item></v>', [{"a": "2"}]),
    ],
)
def test_sanctioned_divergence_duplicate_members_are_an_error(value, last_wins):
    new, reference = _decode_both(f"{ROOT}{value}</r>")
    assert reference == ("returned", canon(last_wins))
    assert new[:2] == ("raised", SerializationError)
    assert new[2].endswith("repeats a member name")


@pytest.mark.parametrize(
    "value",
    [
        '<v xsi:type="xsd:int">1_000</v>',
        '<v xsi:type="xsd:long"> ١٢ </v>',
        '<v xsi:type="xsd:double">1_0.5</v>',
        '<v xsi:type="xsd:double">nan</v>',
        '<v xsi:type="xsd:float">Infinity</v>',
        '<v xsi:type="xsd:double">-inf</v>',
    ],
)
def test_sanctioned_divergence_numbers_take_the_xsd_lexical_space(value):
    new, reference = _decode_both(f"{ROOT}{value}</r>")
    assert reference[0] == "returned"  # the reference read it with int() / float()
    assert new[:2] == ("raised", SerializationError)
    assert "lexical space" in new[2]


@pytest.mark.parametrize(
    "value, data",
    [
        ('<v xsi:type="xsd:base64Binary"> QUJD </v>', b"ABC"),
        ('<v xsi:type="xsd:base64Binary">QUJD\nREVG\n</v>', b"ABCDEF"),
        ('<v xsi:type="xsd:base64Binary"> </v>', b""),
    ],
)
def test_sanctioned_divergence_base64_whitespace_is_not_data(value, data):
    new, reference = _decode_both(f"{ROOT}{value}</r>")
    assert reference[:2] == ("raised", SerializationError)
    assert new == ("returned", canon(data))
