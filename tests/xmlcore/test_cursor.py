"""Tests for the pull reader (``parse(mode="cursor")``) and the envelope scan fast path."""

import pytest

from repro.errors import SoapError, XmlWellFormednessError
from repro.soap.constants import SOAP_ENV_NS
from repro.soap.envelope import Envelope, walk_envelope
from repro.xmlcore import parse
from repro.xmlcore.treebuilder import XmlScanner
from repro.xmlcore.writer import serialize

from .token_reader import XmlCursor

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

    @pytest.mark.parametrize("reader", ["scanner", "token reference"])
    def test_skip_holds_end_tags_to_their_start_tags(self, reader):
        # XML 1.0's Element Type Match holds in a skipped subtree too:
        # the skip counted depth and took </y> for </x>.
        document = "<r><junk><x></y></junk><keep/></r>"
        cursor = parse(document, mode="cursor") if reader == "scanner" else XmlCursor(document)
        cursor.enter(cursor.root())
        with pytest.raises(XmlWellFormednessError, match="mismatched end tag: expected </x>, got </y>"):
            cursor.skip(cursor.next_child())

    def test_skip_reads_well_formed_subtrees(self):
        document = "<r><junk><a x='>'>t&amp;<b/><!-- </c> --><![CDATA[</d>]]></a ></junk><keep/></r>"
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
    """The envelope walk, reading body entries as trees and skipping headers."""

    def test_yields_body_entries(self):
        entries = list(walk_envelope(ENV, None, XmlScanner.read_element))
        assert [e.local_name for e in entries] == ["echo", "echo"]
        assert entries[0].findtext("payload") == "hi"

    def test_matches_tree_parse(self):
        pulled = list(walk_envelope(ENV, None, XmlScanner.read_element))
        full = Envelope.parse(ENV, server=True).body_entries
        assert len(pulled) == len(full)
        for a, b in zip(pulled, full):
            assert a.structurally_equal(b)

    @pytest.mark.parametrize("server", [False, True])
    def test_a_skipped_header_is_held_to_element_type_match(self, server):
        # The client path skips headers and used to accept what the
        # server path rejects.
        document = ENV.replace(
            '<h:token xmlns:h="urn:h">secret</h:token>', "<h><x></y></h>"
        )
        with pytest.raises(XmlWellFormednessError, match="mismatched end tag"):
            Envelope.parse(document, server=server)

    def test_a_header_closed_under_another_prefix_of_its_uri(self):
        # Both paths compare raw names, as XML 1.0 does: the tree (server)
        # no more takes </b:h> for <a:h> when both prefixes name one URI
        # than the skip (client) does.
        document = ENV.replace(
            '<h:token xmlns:h="urn:h">secret</h:token>',
            '<a:h xmlns:a="urn:u" xmlns:b="urn:u">x</b:h>',
        )
        for server in (False, True):
            with pytest.raises(XmlWellFormednessError, match="expected </a:h>, got </b:h>"):
                Envelope.parse(document, server=server)

    def test_header_with_undeclared_prefix_is_skipped(self):
        # Token-level skipping means header contents are never expanded.
        document = ENV.replace("<h:token xmlns:h=\"urn:h\">", "<h:token>")
        with pytest.raises(Exception):
            Envelope.parse(document, server=True)
        entries = walk_envelope(document, None, XmlScanner.read_element)
        assert [e.local_name for e in entries] == ["echo", "echo"]

    def test_wrong_namespace(self):
        document = '<Envelope xmlns="urn:nope"><Body><a/></Body></Envelope>'
        with pytest.raises(SoapError, match="unsupported SOAP envelope namespace"):
            list(walk_envelope(document, None, XmlScanner.read_element))

    def test_not_an_envelope(self):
        with pytest.raises(SoapError, match="not a SOAP Envelope"):
            list(walk_envelope("<r/>", None, XmlScanner.read_element))

    def test_no_body(self):
        document = f'<e:Envelope xmlns:e="{SOAP_ENV_NS}"><e:Header/></e:Envelope>'
        with pytest.raises(SoapError, match="no Body"):
            list(walk_envelope(document, None, XmlScanner.read_element))

    def test_empty_body(self):
        document = f'<e:Envelope xmlns:e="{SOAP_ENV_NS}"><e:Body/></e:Envelope>'
        with pytest.raises(SoapError, match="Body is empty"):
            list(walk_envelope(document, None, XmlScanner.read_element))

    def test_elements_after_body(self):
        document = (
            f'<e:Envelope xmlns:e="{SOAP_ENV_NS}">'
            "<e:Body><a/></e:Body><stray/></e:Envelope>"
        )
        with pytest.raises(SoapError, match="after SOAP Body"):
            list(walk_envelope(document, None, XmlScanner.read_element))

    def test_parse_default_skips_headers(self):
        envelope = Envelope.parse(ENV)
        assert envelope.header_entries == []
        assert len(envelope.body_entries) == 2
        # round-trips through the writer like a tree-parsed envelope
        assert serialize(envelope.body_entries[0]).startswith("<")

    def test_accepts_bytes(self):
        entries = list(walk_envelope(ENV.encode("utf-8"), None, XmlScanner.read_element))
        assert len(entries) == 2
