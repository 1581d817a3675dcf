"""Unit tests for XML entity escaping/unescaping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XmlWellFormednessError
from repro.xmlcore.escape import (
    escape_attribute,
    escape_text,
    is_xml_char,
    unescape,
)


class TestEscapeText:
    def test_plain_text_unchanged(self):
        assert escape_text("hello world") == "hello world"

    def test_ampersand(self):
        assert escape_text("a & b") == "a &amp; b"

    def test_angle_brackets(self):
        assert escape_text("<tag>") == "&lt;tag&gt;"

    def test_quotes_not_escaped_in_text(self):
        assert escape_text('say "hi"') == 'say "hi"'

    def test_empty(self):
        assert escape_text("") == ""

    def test_mixed(self):
        assert escape_text("1 < 2 && 3 > 2") == "1 &lt; 2 &amp;&amp; 3 &gt; 2"


class TestEscapeAttribute:
    def test_double_quote_escaped(self):
        assert escape_attribute('a"b') == "a&quot;b"

    def test_single_quote_escaped(self):
        assert escape_attribute("a'b") == "a&apos;b"

    def test_angle_and_amp(self):
        assert escape_attribute("<&>") == "&lt;&amp;&gt;"

    def test_plain_unchanged(self):
        assert escape_attribute("Beijing, China") == "Beijing, China"


class TestUnescape:
    def test_named_entities(self):
        assert unescape("&lt;&gt;&amp;&quot;&apos;") == "<>&\"'"

    def test_decimal_reference(self):
        assert unescape("&#65;&#66;") == "AB"

    def test_hex_reference(self):
        assert unescape("&#x41;&#x6a;") == "Aj"

    def test_hex_uppercase_x(self):
        assert unescape("&#X41;") == "A"

    def test_unicode_reference(self):
        assert unescape("&#x5317;&#x4eac;") == "北京"

    def test_no_entities_fast_path(self):
        s = "no entities here"
        assert unescape(s) is s

    def test_unterminated_raises(self):
        with pytest.raises(XmlWellFormednessError):
            unescape("a &amp b")

    def test_unknown_entity_raises(self):
        with pytest.raises(XmlWellFormednessError):
            unescape("&nbsp;")

    def test_empty_entity_raises(self):
        with pytest.raises(XmlWellFormednessError):
            unescape("&;")

    def test_bad_decimal_raises(self):
        with pytest.raises(XmlWellFormednessError):
            unescape("&#1f;")

    def test_bad_hex_raises(self):
        with pytest.raises(XmlWellFormednessError):
            unescape("&#xzz;")

    def test_illegal_char_reference_raises(self):
        with pytest.raises(XmlWellFormednessError):
            unescape("&#0;")

    def test_surrogate_reference_raises(self):
        with pytest.raises(XmlWellFormednessError):
            unescape("&#xD800;")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        ["", "plain", "<>&\"'", "tab\tnewline\n", "中文 text", "a&b<c>d", "&#fake;"],
    )
    def test_text_round_trip(self, value):
        assert unescape(escape_text(value)) == value

    @pytest.mark.parametrize("value", ["", "a\"b'c", "<&>", "x &amp; y"])
    def test_attribute_round_trip(self, value):
        assert unescape(escape_attribute(value)) == value


class TestIsXmlChar:
    def test_control_chars_rejected(self):
        assert not is_xml_char(0x0)
        assert not is_xml_char(0x8)
        assert not is_xml_char(0x1F)

    def test_whitespace_allowed(self):
        assert is_xml_char(0x9)
        assert is_xml_char(0xA)
        assert is_xml_char(0xD)

    def test_bmp_allowed(self):
        assert is_xml_char(ord("a"))
        assert is_xml_char(0x4E2D)  # 中

    def test_surrogates_rejected(self):
        assert not is_xml_char(0xD800)
        assert not is_xml_char(0xDFFF)

    def test_ffff_rejected(self):
        assert not is_xml_char(0xFFFE)
        assert not is_xml_char(0xFFFF)

    def test_astral_allowed(self):
        assert is_xml_char(0x1F600)
        assert is_xml_char(0x10FFFF)
        assert not is_xml_char(0x110000)


_NAMED = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


def _loop_unescape(value: str) -> str:
    """``unescape`` as it was before its predefined-entity fast path,
    verbatim: one pass over the references, whatever they are."""
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
            out.append(_loop_charref(code, body))
        else:
            try:
                out.append(_NAMED[body])
            except KeyError:
                raise XmlWellFormednessError(f"unknown entity '&{body};'") from None
        i = end + 1
        amp = value.find("&", i)
    out.append(value[i:])
    return "".join(out)


def _loop_charref(code: int, body: str) -> str:
    if not is_xml_char(code):
        raise XmlWellFormednessError(f"character reference '&{body};' is not a legal XML character")
    return chr(code)


def _outcome(function, value):
    try:
        return ("returned", function(value))
    except XmlWellFormednessError as exc:
        return ("raised", type(exc), str(exc))


_PIECES = st.sampled_from(
    ["&lt;", "&gt;", "&amp;", "&quot;", "&apos;", "&amp;lt;", "&", ";", "&#65;", "&#x41;",
     "&#0;", "&bogus;", "&;", "&lt", "lt;", "a", "é", "<", " ", "&#xZZ;", "&#1a;"]
)  # fmt: skip


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(_PIECES, st.text(max_size=3)), max_size=12).map("".join))
def test_unescape_matches_the_reference_loop(value):
    # same text back, or the same exception type and message
    assert _outcome(unescape, value) == _outcome(_loop_unescape, value)
