"""Hypothesis differential: the scanner's per-node loop against the
token-pull :class:`XmlCursor`.

Documents are dealt from a small vocabulary, so the same raw start tag
comes up again and again — under the same binding (a memo hit) and under
a rebound prefix (a dropped memo) — with mixed quote styles, entities in
attribute values, and CDATA, comments and PIs between the elements.  The
cursor builds every element from lexer tokens and knows no memo: equal
documents must read equal, and broken ones must fail alike.

The SOAP readers take our writer's envelope head and tail as literals.
Near misses of that skeleton (another spelling of the declaration, the
Envelope or the Body, a Header, the SOAP 1.2 URI under ``SOAP-ENV``, a
tail cut short, padded, or followed by a comment or a second root) must
read as a twin that differs from them only in a respelling that keeps
every offset and forces the token path for the whole document.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ClientAssembler
from repro.errors import ReproError
from repro.soap import Envelope, SoapFault, serialize_rpc_request, serialize_rpc_response
from repro.soap.deserializer import DecodedEntry, decode_request_envelope, decode_response_envelope
from repro.xmlcore.treebuilder import XmlScanner

from ..xmlcore.test_reader_parity import read_cursor, read_pull, read_tree
from .test_codec_properties import canon, encodable

# Few names, few attribute spellings: repeats are the point.  The same
# prefix is bound to a different URI by REBIND, never two prefixes to one
# URI (the tree front compares end tags resolved, the cursor raw).
NAMES = ["a", "p:a", "q:b", "item"]
ATTRIBUTES = [
    "",
    ' k="v"',
    " k='v'",
    ' k = "v"',
    '\n k="v"  j=\'w\'',
    ' p:k="v"',
    ' k="a&amp;b&lt;&#65;&#x42;"',
    " k='say &quot;hi&quot; &apos;x&apos; >'",
    ' k="it\'s"',
    ' xsi:type="xsd:string"',
]
REBIND = [' xmlns:p="urn:p2"', ' xmlns:q="urn:q2" xmlns="urn:d2"', ' xmlns=""']
TEXTS = ["t", " ", "a&amp;b", "&lt;&#233;&gt;", "é中🎉", "x > y", "\n"]
MISC = ["<!-- c -->", "<![CDATA[x<y&z]]>", "<![CDATA[]]>", "<?pi data?>", "<!---->"]
ROOT = '<r xmlns:p="urn:p1" xmlns:q="urn:q1" xmlns:xsi="urn:xsi" xmlns:xsd="urn:xsd">'


def _element(name, attributes, rebind, children, self_closing):
    if self_closing and not children:
        return f"<{name}{attributes}{rebind}/>"
    return f"<{name}{attributes}{rebind}>{''.join(children)}</{name}>"


_elements = st.recursive(
    st.builds(
        _element,
        st.sampled_from(NAMES),
        st.sampled_from(ATTRIBUTES),
        st.just(""),
        st.lists(st.sampled_from(TEXTS), max_size=1),
        st.booleans(),
    ),
    lambda inner: st.builds(
        _element,
        st.sampled_from(NAMES),
        st.sampled_from(ATTRIBUTES),
        st.sampled_from([""] * 4 + REBIND),
        st.lists(st.one_of(inner, inner, st.sampled_from(TEXTS + MISC)), max_size=6),
        st.just(False),
    ),
    max_leaves=25,
)

documents = st.builds(
    lambda prolog, children, epilog: f"{prolog}{ROOT}{''.join(children)}</r>{epilog}",
    st.sampled_from(["", '<?xml version="1.0"?>', "<!-- pre -->\n"]),
    st.lists(_elements, min_size=1, max_size=5),
    st.sampled_from(["", "\n", "<!-- post -->"]),
)

_SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(documents)
def test_fast_loop_reads_what_the_token_cursor_reads(document):
    expected = read_cursor(document)
    assert read_tree(document) == expected
    assert read_tree(document.encode("utf-8")) == expected
    root_tag, root_attributes, children = expected
    pulled = read_pull(document)
    assert pulled == (root_tag, root_attributes, tuple(c for c in children if not isinstance(c, str)))


def _outcome(reader, document):
    try:
        return reader(document)
    except ReproError as exc:
        return (type(exc), getattr(exc, "line", None), getattr(exc, "column", None))


BREAKAGE = ["", "<", ">", "&", '"', "'", "/", "\x01", "\uffff", "]]>", "&bogus;", "</p:a>", "<p:a", " xmlns:p=''"]


@_SETTINGS
@given(documents, st.data())
def test_broken_documents_fail_alike(document, data):
    # overwrite one character somewhere with something likely to hurt
    index = data.draw(st.integers(0, len(document) - 1))
    broken = document[:index] + data.draw(st.sampled_from(BREAKAGE)) + document[index + 1 :]
    expected = _outcome(read_cursor, broken)
    assert _outcome(read_tree, broken) == expected
    if isinstance(expected[0], type):  # an error: the pull front raises it too
        assert _outcome(read_pull, broken) == expected


def test_vocabulary_repeats_start_tags():
    # the properties above only test the memo if the memo is hit
    entry = '<w><p:a k="v">t</p:a><p:a k="v">t</p:a></w>'
    scanner = XmlScanner(ROOT + entry * 2 + "</r>")
    scanner.enter(scanner.root())
    scanner.read_element(scanner.next_child())
    assert '<p:a k="v">' in scanner._memo


# -- the SOAP envelope skeleton taken as literals ------------------------------

SOAP11 = 'xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/"'
SCHEMAS = 'xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
# Near misses of the writer's head: (what it spells, how).
HEAD_MISSES = {
    "newline": ("?><SOAP-ENV:Envelope", "?>\n<SOAP-ENV:Envelope"),
    "reordered": (SCHEMAS, " ".join(reversed(SCHEMAS.split(" ")))),
    "body-space": ("<SOAP-ENV:Body>", "<SOAP-ENV:Body >"),
    "encoding": ('encoding="UTF-8"', "encoding='UTF-8'"),
    "header": ("<SOAP-ENV:Body>", '<SOAP-ENV:Header><h:n xmlns:h="urn:h">1</h:n></SOAP-ENV:Header><SOAP-ENV:Body>'),
    "soap12": (SOAP11, 'xmlns:SOAP-ENV="http://www.w3.org/2003/05/soap-envelope"'),
}
# What a twin changes to take the token path: each keeps every offset, so
# line and column in an error message stay the same.
FORCING = ["reordered", "encoding", "version"]
RESPELL = dict(HEAD_MISSES, version=('version="1.0"', "version='1.0'"))
TAIL_MISSES = ["", "", "cut", "space", "newline", "inner-space", "comment", "second-root"]


def _written(kind, values):
    envelope = Envelope()
    if kind == "pack":
        assembler = ClientAssembler("urn:skeleton")
        for value in values:
            assembler.add_call("op", {"a": value})
        envelope = assembler.assemble()
    elif kind == "request":
        envelope.add_body(serialize_rpc_request("urn:skeleton", "op", {"a": values[0]}))
    elif kind == "response":
        envelope.add_body(serialize_rpc_response("urn:skeleton", "op", values[0]))
    else:
        envelope.add_body(SoapFault("Client", str(values[0])).to_element())
    return envelope.to_string()


def _spelled(document, misses, tail, cut):
    for miss in misses:
        old, new = RESPELL[miss]
        document = document.replace(old, new, 1)
    if tail == "cut":
        return document[:-cut]
    if tail == "inner-space":
        return document.replace("</SOAP-ENV:Body></", "</SOAP-ENV:Body> </")
    return document + {"": "", "space": " ", "newline": "\n", "comment": "<!-- c -->",
                       "second-root": "<x/>"}[tail]


def _key(node):
    if isinstance(node, str):
        return node
    if isinstance(node, DecodedEntry):
        return ("decoded", node.tag, node.items(), canon(node.decoded))
    return (node.tag, node.items(), node.nsmap, [_key(child) for child in node.children])


def _read(reader, document):
    try:
        envelope = reader(document)
    except Exception as exc:  # the differential is about *which* exception
        return (type(exc), str(exc))
    body = None if envelope.source is None else (
        envelope.source[envelope.body_start : envelope.body_end], envelope.body_start,
        envelope.body_end, envelope.body_scope,
    )
    return (envelope.read_by, [_key(e) for e in envelope.body_entries],
            [_key(e) for e in envelope.header_entries], body)


SKELETON_READERS = [decode_request_envelope, decode_response_envelope,
                    lambda document: Envelope.parse(document, server=True)]


@_SETTINGS
@given(
    st.sampled_from(["pack", "request", "response", "fault"]),
    st.lists(encodable, min_size=1, max_size=3),
    st.lists(st.sampled_from(sorted(HEAD_MISSES)), max_size=2, unique=True),
    st.sampled_from(TAIL_MISSES),
    st.integers(1, 40),
    st.booleans(),
)
def test_skeleton_near_misses_read_as_their_token_path_twin(kind, values, misses, tail, cut, as_bytes):
    written = _written(kind, values)
    document = _spelled(written, misses, tail, cut)
    forcing = next(miss for miss in FORCING if miss not in misses)
    twin = _spelled(written, [*misses, forcing], tail, cut)
    assert len(twin) == len(document) and twin != document
    if as_bytes:
        document, twin = document.encode("utf-8"), twin.encode("utf-8")
    for reader in SKELETON_READERS:
        assert _read(reader, document) == _read(reader, twin)


def test_the_writer_spells_the_literal_skeleton():
    # the property above only tests the literals if documents take them
    from repro.soap.envelope import _SKELETON

    head, _, _, tail = _SKELETON
    written = _written("pack", [1])
    scanner = XmlScanner(written)
    assert scanner.resume(head) and written.endswith(tail)
    assert not XmlScanner(_spelled(written, ["encoding"], "", 0)).resume(head)
