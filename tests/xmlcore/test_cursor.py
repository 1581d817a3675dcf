"""Tests for the pull reader (``parse(mode="cursor")``) and the envelope scan fast path."""

import pytest

from repro.errors import SoapError, XmlWellFormednessError
from repro.soap.constants import SOAP_ENV_NS
from repro.soap.envelope import Envelope, iter_body_entries
from repro.xmlcore import parse
from repro.xmlcore.writer import serialize

ENV = (
    f'<soapenv:Envelope xmlns:soapenv="{SOAP_ENV_NS}">'
    "<soapenv:Header><h:token xmlns:h=\"urn:h\">secret</h:token></soapenv:Header>"
    "<soapenv:Body>"
    '<op:echo xmlns:op="urn:op"><payload>hi</payload></op:echo>'
    '<op:echo xmlns:op="urn:op"><payload>there</payload></op:echo>'
    "</soapenv:Body>"
    "</soapenv:Envelope>"
)


class TestXmlCursor:
    def test_root_skips_prolog(self):
        cursor = parse('<?xml version="1.0"?><!-- c --><r/>', mode="cursor")
        assert cursor.root().name == "r"

    def test_enter_and_children(self):
        cursor = parse("<r><a/><b>t</b></r>", mode="cursor")
        root = cursor.enter(cursor.root())
        assert root.tag == "r"
        first = cursor.next_child()
        assert first.name == "a"
        cursor.skip(first)
        second = cursor.next_child()
        assert second.name == "b"
        cursor.skip(second)
        assert cursor.next_child() is None

    def test_read_element_matches_tree_parser(self):
        document = '<r xmlns="urn:d"><a x="1">text<b/></a></r>'
        cursor = parse(document, mode="cursor")
        cursor.enter(cursor.root())
        subtree = cursor.read_element(cursor.next_child())
        expected = parse(document).element_children()[0]
        assert subtree.structurally_equal(expected)

    def test_skip_does_not_expand_namespaces(self):
        # The skipped subtree uses an undeclared prefix: the tree parser
        # rejects the document, the cursor never looks at it.
        document = "<r><junk><bad:x>1</bad:x></junk><keep/></r>"
        cursor = parse(document, mode="cursor")
        cursor.enter(cursor.root())
        cursor.skip(cursor.next_child())
        assert cursor.next_child().name == "keep"

    def test_mismatched_end_tag_raises(self):
        cursor = parse("<r><a></b></r>", mode="cursor")
        cursor.enter(cursor.root())
        with pytest.raises(XmlWellFormednessError):
            cursor.read_element(cursor.next_child())

    def test_unclosed_document_raises(self):
        cursor = parse("<r><a>", mode="cursor")
        cursor.enter(cursor.root())
        with pytest.raises(XmlWellFormednessError):
            cursor.read_element(cursor.next_child())

    def test_finish_rejects_second_root(self):
        cursor = parse("<r/><r2/>", mode="cursor")
        cursor.enter(cursor.root())
        assert cursor.next_child() is None
        with pytest.raises(XmlWellFormednessError):
            cursor.finish()


class TestIterBodyEntries:
    def test_yields_body_entries(self):
        entries = list(iter_body_entries(ENV))
        assert [e.local_name for e in entries] == ["echo", "echo"]
        assert entries[0].findtext("payload") == "hi"

    def test_matches_tree_parse(self):
        pulled = list(iter_body_entries(ENV))
        full = Envelope.parse(ENV, server=True).body_entries
        assert len(pulled) == len(full)
        for a, b in zip(pulled, full):
            assert a.structurally_equal(b)

    def test_header_with_undeclared_prefix_is_skipped(self):
        # Token-level skipping means header contents are never expanded.
        document = ENV.replace("<h:token xmlns:h=\"urn:h\">", "<h:token>")
        with pytest.raises(Exception):
            Envelope.parse(document, server=True)
        assert [e.local_name for e in iter_body_entries(document)] == ["echo", "echo"]

    def test_wrong_namespace(self):
        document = '<Envelope xmlns="urn:nope"><Body><a/></Body></Envelope>'
        with pytest.raises(SoapError, match="unsupported SOAP envelope namespace"):
            list(iter_body_entries(document))

    def test_not_an_envelope(self):
        with pytest.raises(SoapError, match="not a SOAP Envelope"):
            list(iter_body_entries("<r/>"))

    def test_no_body(self):
        document = f'<e:Envelope xmlns:e="{SOAP_ENV_NS}"><e:Header/></e:Envelope>'
        with pytest.raises(SoapError, match="no Body"):
            list(iter_body_entries(document))

    def test_empty_body(self):
        document = f'<e:Envelope xmlns:e="{SOAP_ENV_NS}"><e:Body/></e:Envelope>'
        with pytest.raises(SoapError, match="Body is empty"):
            list(iter_body_entries(document))

    def test_elements_after_body(self):
        document = (
            f'<e:Envelope xmlns:e="{SOAP_ENV_NS}">'
            "<e:Body><a/></e:Body><stray/></e:Envelope>"
        )
        with pytest.raises(SoapError, match="after SOAP Body"):
            list(iter_body_entries(document))

    def test_parse_default_skips_headers(self):
        envelope = Envelope.parse(ENV)
        assert envelope.header_entries == []
        assert len(envelope.body_entries) == 2
        # round-trips through the writer like a tree-parsed envelope
        assert serialize(envelope.body_entries[0]).startswith("<")

    def test_accepts_bytes(self):
        entries = list(iter_body_entries(ENV.encode("utf-8")))
        assert len(entries) == 2
