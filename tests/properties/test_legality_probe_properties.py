"""The legality probe never misses, and every reader faults alike.

``has_suspect_chars`` runs once per document and lets every reader skip
its per-run checks, so a miss would let an illegal character through
unnoticed.  Documents of each string width CPython stores (ASCII,
Latin-1, BMP, astral) get any code point inserted at any offset:

* the probe is True whenever the reference regex finds an illegal
  character or ``]]>`` occurs, and ``find_illegal_char`` reports what
  the regex reports;
* the tree reader, the pull walk and the token reader
  (``tests/xmlcore/token_reader.py``) give the same outcome; inside a
  text run or an attribute value the server's value walk
  (``decode_request_envelope``) raises the same error too, and an
  illegal character there is that error, located at the run or the tag.

The probe reads the document in place: its traced peak stays under
4 KB on a 400 KB ASCII document and on 100 KB documents of the wider
kinds, so a document-sized copy cannot come back unnoticed.
"""

import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, XmlWellFormednessError
from repro.soap.deserializer import decode_request_envelope
from repro.xmlcore.escape import _ILLEGAL_XML_RE, find_illegal_char, has_suspect_chars
from repro.xmlcore.lexer import position_at

from ..xmlcore.test_reader_parity import read_cursor, read_pull, read_tree

# One character of each width forces the document's kind; the rest of
# the text is drawn around it.  "]" lets an inserted ">" make "]]>".
KINDS = {
    "ascii": ("a", "abc xyz019]\n"),
    "latin1": ("é", "abc é ßÿ]\n"),
    "bmp": ("ж", "abc é ж中 ]\n"),
    "astral": ("🎉", "abc é ж🎉\U00010000]\n"),
}
HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>'
    '<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/" '
    'xmlns:xsd="http://www.w3.org/2001/XMLSchema" '
    'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
    '<SOAP-ENV:Body><m:echo xmlns:m="urn:probe">'
)
TAIL = "</m:echo></SOAP-ENV:Body></SOAP-ENV:Envelope>"

# The characters the probe exists for, then everything else.
EDGES = [chr(c) for c in range(0x20)] + [
    "\x7f", "\x80", "\xff", "\ud7ff", "\ud800", "\udbff", "\udc00", "\udfff",
    "\ue000", "\ufffd", "\ufffe", "\uffff", "\U00010000", "\U0010ffff", "]", ">",
]
code_points = st.one_of(st.sampled_from(EDGES), st.integers(0, 0x10FFFF).map(chr))


@st.composite
def documents(draw):
    """(document, [(content start, content end, where its error points)])"""
    marker, alphabet = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    texts = [marker + draw(st.text(alphabet, max_size=20)) for _ in range(2)]
    value_tag = f'<value xsi:type="xsd:string" note="{texts[0]}">'
    document = HEAD + value_tag + texts[1] + "</value>" + TAIL
    tag_at = len(HEAD)
    text_at = tag_at + len(value_tag)
    note_at = tag_at + value_tag.index('note="') + len('note="')
    slots = [
        (note_at, note_at + len(texts[0]), tag_at),  # an attribute value: the tag
        (text_at, text_at + len(texts[1]), text_at),  # a text run: the run
    ]
    return document, slots


def _outcome(reader, document):
    try:
        reader(document)
    except ReproError as exc:
        return type(exc), str(exc)
    return None


_SETTINGS = settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(documents(), code_points, st.data())
def test_the_probe_never_misses(drawn, char, data):
    document, _ = drawn
    at = data.draw(st.integers(0, len(document)))
    document = document[:at] + char + document[at:]
    reference = _ILLEGAL_XML_RE.search(document)
    if reference is not None or "]]>" in document:
        assert has_suspect_chars(document)
    found = find_illegal_char(document)
    assert (found and found.span()) == (reference and reference.span())


@_SETTINGS
@given(documents(), code_points, st.data())
def test_every_reader_raises_the_probe_s_error(drawn, char, data):
    document, slots = drawn
    at = data.draw(st.integers(0, len(document)))
    document = document[:at] + char + document[at:]
    expected = _outcome(read_cursor, document)
    assert _outcome(read_tree, document) == expected
    assert _outcome(read_pull, document) == expected
    found = find_illegal_char(document)
    for start, end, error_at in slots:
        if not start <= at <= end:
            continue  # elsewhere a SOAP reader may refuse the structure first
        if expected is not None:
            assert _outcome(decode_request_envelope, document) == expected
        if found is not None:
            line, column = position_at(document, error_at)
            message = f"illegal character U+{ord(found.group()):04X} (line {line}, column {column})"
            assert expected == (XmlWellFormednessError, message)


@pytest.mark.parametrize(
    "document",
    [
        pytest.param(("<a>" + "x" * 400_000 + "</a>"), id="ascii-400KB"),
        pytest.param(("<a>" + "é" * 100_000 + "</a>"), id="latin1-100KB"),
        pytest.param(("<a>" + "ж" * 100_000 + "</a>"), id="bmp-100KB"),
        pytest.param(("<a>" + "🎉" * 100_000 + "</a>"), id="astral-100KB"),
    ],
)
def test_the_probe_copies_nothing_document_sized(document):
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert not has_suspect_chars(document)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 4096
