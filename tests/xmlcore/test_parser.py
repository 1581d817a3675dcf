"""Unit tests for the namespace-aware tree parser."""

import pytest

from repro.errors import XmlNamespaceError, XmlWellFormednessError
from repro.xmlcore import parse
from repro.xmlcore.treebuilder import decode_document


class TestBasicParsing:
    def test_single_element(self):
        root = parse("<a/>")
        assert root.tag == "a"
        assert root.children == []

    def test_text_content(self):
        root = parse("<a>hello</a>")
        assert root.text == "hello"

    def test_nested(self):
        root = parse("<a><b><c>x</c></b></a>")
        assert root.require("b").require("c").text == "x"

    def test_attributes(self):
        root = parse('<a x="1" y="2"/>')
        assert root.get("x") == "1"
        assert root.get("y") == "2"

    def test_mixed_content_preserved(self):
        root = parse("<a>one<b/>two</a>")
        assert root.children[0] == "one"
        assert root.children[2] == "two"

    def test_cdata_becomes_text(self):
        root = parse("<a><![CDATA[<not-a-tag>]]></a>")
        assert root.text == "<not-a-tag>"

    def test_comments_skipped(self):
        root = parse("<a><!-- note --><b/></a>")
        assert len(root.element_children()) == 1

    def test_declaration_accepted(self):
        root = parse('<?xml version="1.0" encoding="UTF-8"?><a/>')
        assert root.tag == "a"

    def test_whitespace_outside_root_ok(self):
        assert parse("  <a/>  \n").tag == "a"

    def test_bytes_input(self):
        assert parse(b"<a>x</a>").text == "x"


class TestNamespaces:
    def test_default_namespace(self):
        root = parse('<a xmlns="http://u"><b/></a>')
        assert root.tag == "{http://u}a"
        assert root.element_children()[0].tag == "{http://u}b"

    def test_prefixed(self):
        root = parse('<s:a xmlns:s="http://s"/>')
        assert root.tag == "{http://s}a"

    def test_attribute_no_default_namespace(self):
        root = parse('<a xmlns="http://u" id="7"/>')
        assert root.get("id") == "7"

    def test_prefixed_attribute(self):
        root = parse('<a xmlns:p="http://p" p:id="7"/>')
        assert root.get("{http://p}id") == "7"

    def test_undeclared_prefix_raises(self):
        with pytest.raises(XmlNamespaceError):
            parse("<p:a/>")

    def test_scope_ends_with_element(self):
        with pytest.raises(XmlNamespaceError):
            parse('<a><b xmlns:p="http://p"/><p:c/></a>')

    def test_duplicate_expanded_attribute_raises(self):
        with pytest.raises(XmlWellFormednessError):
            parse('<a xmlns:p="http://u" xmlns:q="http://u" p:x="1" q:x="2"/>')

    def test_nsmap_recorded(self):
        root = parse('<a xmlns:s="http://s"/>')
        assert root.nsmap == {"s": "http://s"}

    def test_soap_envelope_shape(self):
        doc = (
            '<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/">'
            "<SOAP-ENV:Body><m:echo xmlns:m='urn:svc'><payload>hi</payload></m:echo>"
            "</SOAP-ENV:Body></SOAP-ENV:Envelope>"
        )
        root = parse(doc)
        assert root.tag == "{http://schemas.xmlsoap.org/soap/envelope/}Envelope"
        body = root.element_children()[0]
        echo = body.element_children()[0]
        assert echo.tag == "{urn:svc}echo"
        assert echo.require("payload").text == "hi"


class TestWellFormedness:
    @pytest.mark.parametrize(
        "src",
        [
            "",  # empty document
            "   ",  # whitespace only
            "<a></b>",  # mismatched tags
            "<a>",  # unclosed
            "<a/><b/>",  # two roots
            "text<a/>",  # text before root
            "<a/>trailing",  # text after root
            "</a>",  # end tag first
            '<a x="1" x="2"/>',  # duplicate attribute
        ],
    )
    def test_rejected(self, src):
        with pytest.raises(XmlWellFormednessError):
            parse(src)

    def test_mismatch_across_namespaces_rejected(self):
        with pytest.raises(XmlWellFormednessError):
            parse('<p:a xmlns:p="http://u" xmlns:q="http://v"></q:a>')

    def test_same_expanded_name_different_prefix_rejected(self):
        # XML 1.0's Element Type Match compares Names, not the URIs they
        # resolve to: every reader (tree, skip, next_child) says so alike.
        with pytest.raises(XmlWellFormednessError, match="expected </p:a>, got </q:a>"):
            parse('<p:a xmlns:p="http://u" xmlns:q="http://u"></q:a>')


class TestDecodeDocument:
    def test_utf8_plain(self):
        assert decode_document("<a>北京</a>".encode("utf-8")) == "<a>北京</a>"

    def test_utf8_bom(self):
        assert decode_document(b"\xef\xbb\xbf<a/>") == "<a/>"

    def test_utf16_le_bom(self):
        data = ("\ufeff" + "<a>x</a>").encode("utf-16-le")
        assert decode_document(data) == "<a>x</a>"

    def test_utf16_be_bom(self):
        data = ("\ufeff" + "<a>x</a>").encode("utf-16-be")
        assert decode_document(data) == "<a>x</a>"

    def test_declared_encoding(self):
        doc = '<?xml version="1.0" encoding="latin-1"?><a>caf\xe9</a>'
        assert decode_document(doc.encode("latin-1")) == doc

    def test_bogus_declared_encoding_is_xml_error(self):
        doc = b'<?xml version="1.0" encoding="no-such-codec"?><a/>'
        with pytest.raises(XmlWellFormednessError, match="undecodable"):
            decode_document(doc)

    @pytest.mark.parametrize(
        "name", ["unicode_escape", "raw_unicode_escape", "idna", "punycode", "Unicode-Escape"]
    )
    def test_declared_non_charset_codec_is_refused(self, name):
        # under unicode_escape these six ASCII bytes would read as one "é"
        doc = f'<?xml version="1.0" encoding="{name}"?><a>\\u00e9</a>'.encode("ascii")
        with pytest.raises(XmlWellFormednessError, match="undecodable"):
            decode_document(doc)

    def test_declared_utf8_and_utf16_still_read(self):
        doc = '<?xml version="1.0" encoding="UTF-8"?><a>\u00e9</a>'
        assert decode_document(doc.encode("utf-8")) == doc
        doc = '<?xml version="1.0" encoding="utf-16"?><a>x</a>'
        assert decode_document(doc.encode("utf-16")) == doc

    def test_malformed_utf8_is_xml_error(self):
        with pytest.raises(XmlWellFormednessError, match="undecodable"):
            decode_document(b"<a>\xff\xfa</a>")
