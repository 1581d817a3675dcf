"""Which path reads a packed entry's start tag.

Both readers try one match on each entry of a ``Parallel_Method``
(``XmlScanner.next_entry``) before the lexer's token path.  Entries our
own serializer writes must all be read by that match: the lexer builds
no start-tag token for any of them.  A per-entry Fault in a packed
response goes to the token path on its own, and the document stays on
the scanner.  Without these cases a silent return to the token path
would show only as a slower benchmark.
"""

import pytest

from repro.core import ClientAssembler, packformat
from repro.soap import Envelope, serialize_rpc_response
from repro.soap.constants import FAULT_SERVER, FAULT_TAG, REQUEST_ID_ATTR
from repro.soap.deserializer import (
    DecodedEntry,
    decode_request_envelope,
    decode_response_envelope,
    parse_rpc_request,
    parse_rpc_response,
)
from repro.soap.fault import SoapFault
from repro.xmlcore import lexer

NS = "urn:entry-match"
ENTRIES = 32


@pytest.fixture
def start_tags(monkeypatch):
    """The name of every start tag the lexer builds a token for."""
    names = []
    lex = lexer.Lexer._lex_start_tag

    def counted(self):
        token = lex(self)
        names.append(token.name)
        return token

    monkeypatch.setattr(lexer.Lexer, "_lex_start_tag", counted)
    return names


def _request() -> bytes:
    assembler = ClientAssembler(NS)
    for index in range(ENTRIES):
        assembler.add_call("echo", {"payload": f"p{index}"})
    return assembler.assemble().to_bytes()


def _response(fault_at: int | None = None) -> bytes:
    entries = []
    for index in range(ENTRIES):
        if index == fault_at:
            entry = SoapFault(FAULT_SERVER, "boom").to_element()
        else:
            entry = serialize_rpc_response(NS, "echo", f"p{index}")
        entry.set(REQUEST_ID_ATTR, packformat.request_id(index))
        entries.append(entry)
    envelope = Envelope()
    envelope.add_body(packformat.build_parallel_method(entries, assign_ids=False))
    return envelope.to_bytes()


def _entries(envelope: Envelope) -> list:
    (pack,) = envelope.body_entries
    return pack.children


def test_a_packed_request_reads_no_entry_start_tag_as_a_token(start_tags):
    envelope = decode_request_envelope(_request())
    assert envelope.read_by == "scanner"
    entries = _entries(envelope)
    assert [type(entry) for entry in entries] == [DecodedEntry] * ENTRIES
    assert [entry.get(REQUEST_ID_ATTR) for entry in entries] == [f"r{i}" for i in range(ENTRIES)]
    assert [parse_rpc_request(entry).params for entry in entries] == [
        {"payload": f"p{i}"} for i in range(ENTRIES)
    ]
    assert start_tags and not [name for name in start_tags if name.endswith(":echo")]


def test_a_packed_response_reads_no_entry_start_tag_as_a_token(start_tags):
    envelope = decode_response_envelope(_response())
    assert envelope.read_by == "scanner"
    entries = _entries(envelope)
    assert [type(entry) for entry in entries] == [DecodedEntry] * ENTRIES
    assert [parse_rpc_response(entry).value for entry in entries] == [f"p{i}" for i in range(ENTRIES)]
    assert start_tags and not [name for name in start_tags if name.endswith(":echoResponse")]


def test_a_per_entry_fault_stays_on_the_scanner(start_tags):
    envelope = decode_response_envelope(_response(fault_at=5))
    assert envelope.read_by == "scanner"
    entries = _entries(envelope)
    fault = entries.pop(5)
    assert type(fault) is not DecodedEntry and fault.tag == FAULT_TAG
    assert fault.get(REQUEST_ID_ATTR) == "r5"
    assert [type(entry) for entry in entries] == [DecodedEntry] * (ENTRIES - 1)
    assert [name for name in start_tags if name.endswith("Response")] == []
    assert [name for name in start_tags if name.endswith(":Fault")]  # read by the token path


def test_a_fallback_is_marked_on_the_envelope():
    """A response the value walk does not read comes back from the tree
    source, and says so."""
    document = _response().replace(b'<return xsi:type="xsd:string">p3', b"<return>p3")
    envelope = decode_response_envelope(document)
    assert envelope.read_by == "tree"
    assert type(_entries(envelope)[0]) is not DecodedEntry
