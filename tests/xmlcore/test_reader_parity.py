"""The readers agree, and the scanner's start-tag memo never outlives a binding.

Three readers take the same bytes: the fused scanner's per-node loop as a
whole-document tree build and behind its pull API
(``xmlcore.parse(mode="cursor")``), and the token-pull :class:`XmlCursor`
kept beside these tests.  The cursor builds every element from lexer
tokens — no memo, no per-node loop — so it is the reference the loop is
held to.
"""

import pytest

from repro import xmlcore
from repro.errors import XmlWellFormednessError
from repro.xmlcore.tree import Element
from repro.xmlcore.treebuilder import XmlScanner

from .token_reader import XmlCursor


def dump(element: Element) -> tuple:
    """Everything a reader decides about a subtree, adjacent text merged."""
    children: list = []
    for child in element.children:
        if isinstance(child, Element):
            children.append(dump(child))
        elif children and isinstance(children[-1], str):
            children[-1] += child
        else:
            children.append(child)
    return (element.tag, element.items(), tuple(children))


def read_tree(document):
    return dump(xmlcore.parse(document))


def read_pull(document):
    """Enter the root, materialize each child subtree on its own."""
    cursor = xmlcore.parse(document, mode="cursor")
    root = cursor.enter(cursor.root())
    children = []
    child = cursor.next_child()
    while child is not None:
        children.append(dump(cursor.read_element(child)))
        child = cursor.next_child()
    cursor.finish()
    return (root.tag, root.items(), tuple(children))


def read_cursor(document):
    cursor = XmlCursor(document)
    element = cursor.read_element(cursor.root())
    cursor.finish()
    return dump(element)


READERS = {"tree": read_tree, "pull": read_pull, "cursor": read_cursor}


# -- the memo is dropped with the binding it was made under -------------------

REBOUND_PREFIX = (
    '<r xmlns:p="urn:1">'
    '<w><p:a p:k="v">t</p:a><p:a p:k="v">t</p:a></w>'
    '<x xmlns:p="urn:2"><w><p:a p:k="v">t</p:a></w></x>'
    '<w><p:a p:k="v">t</p:a></w>'
    "</r>"
)
SHADOWED_DEFAULT = (
    '<r xmlns="urn:1">'
    '<w><a k="v"/><a k="v"/></w>'
    '<x xmlns="urn:2"><w><a k="v"/></w></x>'
    '<x xmlns=""><w><a k="v"/></w></x>'
    '<w><a k="v"/></w>'
    "</r>"
)
SELF_CLOSING_SIBLING = (
    '<r xmlns:p="urn:1">'
    '<w><p:a/><p:a xmlns:p="urn:2"/><p:a/><p:b xmlns:p="urn:3" p:k="v"/><p:a/></w>'
    "</r>"
)


def _a(uri):
    return (f"{{{uri}}}a", ((f"{{{uri}}}k", "v"),), ("t",))


MEMO_CASES = {
    "rebound_prefix": (
        REBOUND_PREFIX,
        (
            "r",
            (),
            (
                ("w", (), (_a("urn:1"), _a("urn:1"))),
                ("x", (), (("w", (), (_a("urn:2"),)),)),
                ("w", (), (_a("urn:1"),)),
            ),
        ),
    ),
    "shadowed_default": (
        SHADOWED_DEFAULT,
        (
            "{urn:1}r",
            (),
            (
                ("{urn:1}w", (), (("{urn:1}a", (("k", "v"),), ()),) * 2),
                ("{urn:2}x", (), (("{urn:2}w", (), (("{urn:2}a", (("k", "v"),), ()),)),)),
                ("x", (), (("w", (), (("a", (("k", "v"),), ()),)),)),
                ("{urn:1}w", (), (("{urn:1}a", (("k", "v"),), ()),)),
            ),
        ),
    ),
    "self_closing_sibling": (
        SELF_CLOSING_SIBLING,
        (
            "r",
            (),
            (
                (
                    "w",
                    (),
                    (
                        ("{urn:1}a", (), ()),
                        ("{urn:2}a", (), ()),
                        ("{urn:1}a", (), ()),
                        ("{urn:3}b", (("{urn:3}k", "v"),), ()),
                        ("{urn:1}a", (), ()),
                    ),
                ),
            ),
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_same_raw_tag_under_two_bindings(case, reader):
    document, expected = MEMO_CASES[case]
    assert READERS[reader](document) == expected


def test_memo_is_used_and_dropped_on_the_pull_front():
    scanner = XmlScanner(REBOUND_PREFIX)
    scanner.enter(scanner.root())
    raw = '<p:a p:k="v">'

    first = scanner.read_element(scanner.next_child())  # <w> under p=urn:1
    assert scanner._memo[raw][0] == "{urn:1}a"
    assert first.children[0].items() is first.children[1].items()  # one tuple, shared

    scanner.enter(scanner.next_child())  # <x xmlns:p="urn:2"> moves the scope version
    assert not scanner._memo
    inner = scanner.read_element(scanner.next_child())
    assert inner.children[0].tag == "{urn:2}a"
    assert scanner._memo[raw][0] == "{urn:2}a"

    assert scanner.next_child() is None  # </x> pops the frame
    assert not scanner._memo
    last = scanner.read_element(scanner.next_child())
    assert last.children[0].tag == "{urn:1}a"
    assert scanner.next_child() is None
    scanner.finish()


def test_memo_moves_exactly_with_the_scope_version():
    # every clearing of the memo is a version change and the reverse
    scanner = XmlScanner(SHADOWED_DEFAULT)
    scanner.enter(scanner.root())
    child = scanner.next_child()
    while child is not None:
        version = scanner._scope.version
        declares = any(name.startswith("xmlns") for name, _ in child.attributes)
        if declares:
            scanner.enter(child)
            assert scanner._scope.version != version and not scanner._memo
            scanner.read_element(scanner.next_child())
            assert scanner._memo
            assert scanner.next_child() is None
            assert not scanner._memo
        else:
            scanner.read_element(child)
            assert scanner._scope.version == version and scanner._memo
        child = scanner.next_child()


def test_shared_attribute_tuple_is_not_shared_state():
    first, second = xmlcore.parse('<r><a k="v"/><a k="v"/></r>').element_children()
    first.set("k", "changed")
    first.set("extra", "1")
    assert second.items() == (("k", "v"),)


def test_tag_with_gt_inside_a_value_is_not_confused_with_its_prefix():
    document = '<r><a k="x>"/><a k="x>" j="1"/><a k="x>"/><a k="x"/></r>'
    assert [e.items() for e in xmlcore.parse(document).element_children()] == [
        (("k", "x>"),),
        (("k", "x>"), ("j", "1")),
        (("k", "x>"),),
        (("k", "x"),),
    ]


# -- characters illegal in XML 1.0 are illegal everywhere ---------------------

ILLEGAL = ["\x01", "\x0b", "\x1f", "￾", "￿", "\ud800"]
ILLEGAL_PLACES = {
    "attribute": '<r><a b="x{}y"/></r>',
    "attribute_single_quoted": "<r><a b = 'x{}y' >t</a></r>",
    "attribute_repeated_tag": '<r><a b="ok"/><a b="ok"/>\n<a b="{}"/></r>',
    "attribute_unspaced": '<r><a b="1"c="{}"/></r>',
    "attribute_on_root": '<r b="{}"/>',
    "text": "<r><a>x{}y</a></r>",
    "cdata": "<r><a><![CDATA[x{}y]]></a></r>",
}


@pytest.mark.parametrize("place", sorted(ILLEGAL_PLACES))
@pytest.mark.parametrize("char", ILLEGAL, ids=lambda c: f"U+{ord(c):04X}")
def test_illegal_character_is_rejected_by_every_reader(place, char):
    document = ILLEGAL_PLACES[place].format(char)
    positions = set()
    for name, reader in READERS.items():
        with pytest.raises(XmlWellFormednessError, match="illegal character") as caught:
            reader(document)
        positions.add((caught.value.line, caught.value.column))
    assert len(positions) == 1, positions


def test_illegal_character_in_a_skipped_subtree():
    document = '<r><skipped><a b="\x01"/></skipped><kept/></r>'
    for reader in (XmlScanner, XmlCursor):
        cursor = reader(document)
        cursor.enter(cursor.root())
        with pytest.raises(XmlWellFormednessError, match="illegal character"):
            cursor.skip(cursor.next_child())


def test_cdata_end_marker_is_legal_outside_character_data():
    # ']]>' trips the once-per-document probe; only text runs may not hold it
    document = '<r a="]]>"><!-- ]]> --><b><![CDATA[x]]></b><c k="v"/><c k="v"/></r>'
    expected = read_cursor(document)
    assert read_tree(document) == expected == read_pull(document)
    with pytest.raises(XmlWellFormednessError, match="not allowed in character data"):
        xmlcore.parse("<r><c/><c/>x]]>y</r>")
