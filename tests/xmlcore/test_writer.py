"""Unit tests for serialization and the streaming writer."""

import json

import pytest

from repro.errors import XmlNamespaceError
from repro.xmlcore import parse
from repro.xmlcore.tree import Element
from repro.xmlcore.writer import StreamingWriter, _write_element, serialize, serialize_bytes
from . import writer_golden_cases


class TestSerializeTree:
    def test_leaf(self):
        assert serialize(Element("a")) == "<a/>"

    def test_text(self):
        e = Element("a")
        e.append("hi")
        assert serialize(e) == "<a>hi</a>"

    def test_attributes(self):
        e = Element("a", {"x": "1"})
        assert serialize(e) == '<a x="1"/>'

    def test_text_escaped(self):
        e = Element("a")
        e.append("a<b&c")
        assert serialize(e) == "<a>a&lt;b&amp;c</a>"

    def test_attribute_escaped(self):
        e = Element("a", {"x": 'say "hi"'})
        assert serialize(e) == '<a x="say &quot;hi&quot;"/>'

    def test_declaration(self):
        out = serialize(Element("a"), declaration=True)
        assert out.startswith('<?xml version="1.0" encoding="UTF-8"?>')

    def test_serialize_bytes_utf8(self):
        e = Element("a")
        e.append("北京")
        data = serialize_bytes(e)
        assert isinstance(data, bytes)
        assert "北京".encode("utf-8") in data

    def test_namespace_with_preferred_prefix(self):
        e = Element("{http://s}a", nsmap={"s": "http://s"})
        assert serialize(e) == '<s:a xmlns:s="http://s"/>'

    def test_namespace_generated_prefix(self):
        out = serialize(Element("{http://s}a"))
        assert out == '<ns0:a xmlns:ns0="http://s"/>'

    def test_default_namespace(self):
        e = Element("{http://s}a", nsmap={"": "http://s"})
        assert serialize(e) == '<a xmlns="http://s"/>'

    def test_child_reuses_parent_prefix(self):
        e = Element("{http://s}a", nsmap={"s": "http://s"})
        e.subelement("{http://s}b")
        assert serialize(e) == '<s:a xmlns:s="http://s"><s:b/></s:a>'

    def test_attribute_never_uses_default_prefix(self):
        e = Element("{http://s}a", {"{http://s}id": "1"}, nsmap={"": "http://s"})
        out = serialize(e)
        # the attribute must get a real prefix even though '' maps to the uri
        assert 'ns0:id="1"' in out
        assert 'xmlns:ns0="http://s"' in out

    def test_unprefixed_element_under_default_ns_redeclares(self):
        e = Element("{http://s}a", nsmap={"": "http://s"})
        e.subelement("plain")
        out = serialize(e)
        assert '<plain xmlns=""' in out


class TestRoundTrip:
    @pytest.mark.parametrize(
        "doc",
        [
            "<a/>",
            "<a>text</a>",
            '<a x="1"><b y="2">t</b>tail</a>',
            '<s:Envelope xmlns:s="http://se"><s:Body><m:op xmlns:m="urn:m"><p>v</p></m:op></s:Body></s:Envelope>',
            "<a>one<b/>two<c/>three</a>",
        ],
    )
    def test_parse_serialize_parse(self, doc):
        first = parse(doc)
        second = parse(serialize(first))
        assert first.structurally_equal(second)


class TestStreamingWriter:
    def test_manual_events(self):
        w = StreamingWriter()
        w.start("a", {"x": "1"})
        w.characters("hi")
        w.start("b")
        w.end()
        w.end()
        assert w.getvalue() == '<a x="1">hi<b/></a>'

    def test_element_convenience(self):
        w = StreamingWriter()
        w.start("root")
        w.element("leaf", "v")
        w.end()
        assert w.getvalue() == "<root><leaf>v</leaf></root>"

    def test_raw_splice(self):
        w = StreamingWriter()
        w.start("a")
        w.raw("<pre-rendered/>")
        w.end()
        assert w.getvalue() == "<a><pre-rendered/></a>"

    def test_declaration(self):
        w = StreamingWriter(declaration=True)
        w.start("a")
        w.end()
        assert w.getvalue().startswith("<?xml")

    def test_unbalanced_end_raises(self):
        w = StreamingWriter()
        with pytest.raises(XmlNamespaceError):
            w.end()

    def test_getvalue_with_open_element_raises(self):
        w = StreamingWriter()
        w.start("a")
        with pytest.raises(XmlNamespaceError):
            w.getvalue()

    def test_namespaced_stream(self):
        w = StreamingWriter()
        w.start("{http://s}Envelope", nsmap={"soap": "http://s"})
        w.start("{http://s}Body")
        w.end()
        w.end()
        assert (
            w.getvalue()
            == '<soap:Envelope xmlns:soap="http://s"><soap:Body/></soap:Envelope>'
        )

    def test_generated_prefixes_do_not_collide(self):
        w = StreamingWriter()
        w.start("{http://a}root", nsmap={"ns0": "http://a"})
        w.start("{http://b}child")
        w.end()
        w.end()
        out = w.getvalue()
        root = parse(out)
        child = root.element_children()[0]
        assert child.tag == "{http://b}child"


class TestCommentsAndPIs:
    def test_comment(self):
        w = StreamingWriter()
        w.start("a")
        w.comment(" note ")
        w.end()
        assert w.getvalue() == "<a><!-- note --></a>"

    def test_comment_round_trips_through_parser(self):
        w = StreamingWriter()
        w.start("a")
        w.comment("x")
        w.element("b", "v")
        w.end()
        root = parse(w.getvalue())
        assert root.findtext("b") == "v"

    def test_comment_double_dash_rejected(self):
        w = StreamingWriter()
        w.start("a")
        with pytest.raises(XmlNamespaceError):
            w.comment("a -- b")

    def test_comment_trailing_dash_rejected(self):
        w = StreamingWriter()
        w.start("a")
        with pytest.raises(XmlNamespaceError):
            w.comment("ends with -")

    def test_processing_instruction(self):
        w = StreamingWriter()
        w.processing_instruction("stylesheet", 'href="x.xsl"')
        w.start("a")
        w.end()
        assert w.getvalue() == '<?stylesheet href="x.xsl"?><a/>'

    def test_pi_without_data(self):
        w = StreamingWriter()
        w.start("a")
        w.processing_instruction("marker")
        w.end()
        assert w.getvalue() == "<a><?marker?></a>"

    def test_pi_reserved_target_rejected(self):
        w = StreamingWriter()
        with pytest.raises(XmlNamespaceError):
            w.processing_instruction("XML", "data")

    def test_pi_terminator_in_data_rejected(self):
        w = StreamingWriter()
        with pytest.raises(XmlNamespaceError):
            w.processing_instruction("t", "bad ?> data")


class TestGoldenCorpus:
    """Byte-identity with the writer as it was before the per-node memo
    (``golden/writer.json`` was rendered at the parent commit)."""

    GOLDEN = json.loads(writer_golden_cases.GOLDEN.read_text(encoding="utf-8"))

    def test_corpus_and_cases_agree(self):
        assert set(self.GOLDEN) == set(writer_golden_cases.CASES)

    @pytest.mark.parametrize("name", sorted(writer_golden_cases.CASES))
    def test_output_is_byte_identical(self, name):
        assert writer_golden_cases.CASES[name]() == self.GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(writer_golden_cases.CASES))
    def test_output_parses_back(self, name):
        # the corpus is well-formed under every binding it exercises
        parse(self.GOLDEN[name])


class TestNameMemo:
    def test_memo_does_not_outlive_a_rebinding(self):
        root = Element("{urn:a}r", nsmap={"p": "urn:a"})
        root.subelement("{urn:a}e")
        inner = root.subelement("{urn:b}i", nsmap={"p": "urn:b"})
        inner.subelement("{urn:a}e")  # p now means urn:b: needs its own prefix
        root.subelement("{urn:a}e")  # and p means urn:a again
        assert serialize(root) == (
            '<p:r xmlns:p="urn:a"><p:e/><p:i xmlns:p="urn:b">'
            '<ns0:e xmlns:ns0="urn:a"/></p:i><p:e/></p:r>'
        )

    def test_memoised_and_general_paths_interleave(self):
        # start()/end() (general) around _write_element (memo) and back
        writer = StreamingWriter()
        writer.start("{urn:a}r", nsmap={"p": "urn:a"})
        leaf = Element("{urn:a}e", {"k": "v"})
        leaf.append("t")
        for _ in range(2):
            _write_element(writer, leaf)
        writer.start("{urn:a}e", {"k": "v"})
        _write_element(writer, leaf)
        writer.end()
        writer.end()
        assert writer.getvalue() == (
            '<p:r xmlns:p="urn:a"><p:e k="v">t</p:e><p:e k="v">t</p:e>'
            '<p:e k="v"><p:e k="v">t</p:e></p:e></p:r>'
        )

    def test_deep_tree_needs_no_recursion(self):
        root = leaf = Element("n")
        for _ in range(5000):
            leaf = leaf.subelement("n")
        assert serialize(root) == "<n>" * 5000 + "<n/>" + "</n>" * 5000
