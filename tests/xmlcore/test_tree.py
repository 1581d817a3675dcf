"""Unit tests for the element tree model."""

import pytest

from repro.errors import XmlError
from repro.xmlcore import parse
from repro.xmlcore.qname import QName
from repro.xmlcore.tree import Element


@pytest.fixture
def envelope():
    env = Element("{http://soap}Envelope")
    body = env.subelement("{http://soap}Body")
    req = body.subelement("{http://svc}echo")
    req.subelement("payload", text="hello")
    return env


class TestConstruction:
    def test_tag_from_qname(self):
        e = Element(QName("http://u", "n"))
        assert e.tag == "{http://u}n"

    def test_append_text_and_element(self):
        e = Element("root")
        e.append("text")
        e.append(Element("child"))
        assert len(e.children) == 2

    def test_append_bad_type_raises(self):
        e = Element("root")
        with pytest.raises(XmlError):
            e.append(42)

    def test_subelement_with_text(self):
        e = Element("root")
        child = e.subelement("item", {"id": "1"}, text="v")
        assert child.text == "v"
        assert child.get("id") == "1"
        assert e.children == [child]

    def test_extend(self):
        e = Element("root")
        e.extend([Element("a"), "txt", Element("b")])
        assert len(e.children) == 3

    def test_set_get(self):
        e = Element("root")
        e.set(QName("http://a", "attr"), "v")
        assert e.get("{http://a}attr") == "v"
        assert e.get("missing") is None
        assert e.get("missing", "dflt") == "dflt"


class TestInspection:
    def test_qname_parts(self):
        e = Element("{http://u}local")
        assert e.namespace == "http://u"
        assert e.local_name == "local"

    def test_text_direct_only(self):
        e = Element("root")
        e.append("a")
        child = e.subelement("c", text="inner")
        e.append("b")
        assert e.text == "ab"
        assert e.full_text() == "ainnerb"
        assert child.text == "inner"

    def test_element_children_filters_text(self):
        e = Element("root")
        e.append("txt")
        c = e.subelement("c")
        assert e.element_children() == [c]

    def test_iter_preorder(self, envelope):
        tags = [el.local_name for el in envelope.iter()]
        assert tags == ["Envelope", "Body", "echo", "payload"]

    def test_iter_preorder_mixed_content_and_depth(self):
        root = parse("<a>t<b><c/>u<d><e/></d></b>v<f/><g><h/></g></a>")
        assert [el.tag for el in root.iter()] == list("abcdefgh")
        # an explicit stack, so depth is bounded by memory, not recursion
        deep = leaf = Element("n0")
        for level in range(1, 5000):
            leaf = leaf.subelement(f"n{level}")
        assert sum(1 for _ in deep.iter()) == 5000

    def test_find_by_local_name(self, envelope):
        assert envelope.find("Body") is not None

    def test_find_by_clark_name(self, envelope):
        assert envelope.find("{http://soap}Body") is not None
        assert envelope.find("{http://wrong}Body") is None

    def test_findall(self):
        e = Element("root")
        e.subelement("item")
        e.subelement("item")
        e.subelement("other")
        assert len(e.findall("item")) == 2

    def test_findtext(self):
        e = Element("root")
        e.subelement("name", text="value")
        assert e.findtext("name") == "value"
        assert e.findtext("missing") is None
        assert e.findtext("missing", "d") == "d"

    def test_require_present(self, envelope):
        assert envelope.require("Body").local_name == "Body"

    def test_require_missing_raises(self, envelope):
        with pytest.raises(XmlError):
            envelope.require("Header")


class TestEqualityAndCopy:
    def test_structural_equality(self, envelope):
        assert envelope.structurally_equal(envelope.copy())

    def test_adjacent_text_merged_for_equality(self):
        a = Element("r")
        a.append("he")
        a.append("llo")
        b = Element("r")
        b.append("hello")
        assert a.structurally_equal(b)

    def test_empty_text_ignored_for_equality(self):
        a = Element("r")
        a.append("")
        b = Element("r")
        assert a.structurally_equal(b)

    def test_different_attrs_not_equal(self):
        a = Element("r", {"x": "1"})
        b = Element("r", {"x": "2"})
        assert not a.structurally_equal(b)

    def test_different_tag_not_equal(self):
        assert not Element("a").structurally_equal(Element("b"))

    def test_different_child_count_not_equal(self):
        a = Element("r")
        a.subelement("c")
        assert not a.structurally_equal(Element("r"))

    def test_text_vs_element_child_not_equal(self):
        a = Element("r")
        a.append("c")
        b = Element("r")
        b.subelement("c")
        assert not a.structurally_equal(b)

    def test_copy_is_deep(self, envelope):
        clone = envelope.copy()
        clone.require("Body").require("echo").set("new", "attr")
        assert envelope.require("Body").require("echo").get("new") is None
