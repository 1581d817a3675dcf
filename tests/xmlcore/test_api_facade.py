"""The unified parse facade: ``repro.xmlcore.parse`` and ``Envelope.parse``."""

import pytest

from repro import xmlcore
from repro.soap.envelope import Envelope
from repro.xmlcore import XmlScanner
from repro.xmlcore.tree import Element

DOC = b'<root a="1"><child>text</child></root>'

ENVELOPE = (
    b'<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">'
    b"<soap:Header><h:Hint xmlns:h=\"urn:h\">x</h:Hint></soap:Header>"
    b'<soap:Body><m:Echo xmlns:m="urn:m"><payload>hi</payload></m:Echo></soap:Body>'
    b"</soap:Envelope>"
)


class TestParseFacade:
    def test_tree_mode_is_default(self):
        tree = xmlcore.parse(DOC)
        assert isinstance(tree, Element)
        assert tree.tag == "root"
        assert tree.get("a") == "1"

    def test_cursor_mode_returns_cursor(self):
        cursor = xmlcore.parse(DOC, mode="cursor")
        assert isinstance(cursor, XmlScanner)
        for method in ("root", "enter", "next_child", "skip", "read_element", "finish"):
            assert callable(getattr(cursor, method))
        start = cursor.root()
        assert start.name == "root"
        cursor.skip(start)
        cursor.finish()

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown parse mode 'bogus'"):
            xmlcore.parse(DOC, mode="bogus")

    def test_envelope_parse_skips_headers_by_default(self):
        envelope = Envelope.parse(ENVELOPE)
        assert envelope.header_entries == []
        assert envelope.first_body_entry().qname.local == "Echo"

    def test_envelope_parse_server_materializes_headers(self):
        envelope = Envelope.parse(ENVELOPE, server=True)
        assert [h.qname.local for h in envelope.header_entries] == ["Hint"]
