"""Hypothesis differential: the scanner's per-node loop against the
token-pull :class:`XmlCursor`.

Documents are dealt from a small vocabulary, so the same raw start tag
comes up again and again — under the same binding (a memo hit) and under
a rebound prefix (a dropped memo) — with mixed quote styles, entities in
attribute values, and CDATA, comments and PIs between the elements.  The
cursor builds every element from lexer tokens and knows no memo: equal
documents must read equal, and broken ones must fail alike.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.xmlcore.treebuilder import XmlScanner

from ..xmlcore.test_reader_parity import read_cursor, read_pull, read_tree

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
