"""Property-based tests: XML escaping, trees and parse/serialize round-trips."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlcore.escape import escape_attribute, escape_text, unescape
from repro.xmlcore import parse
from repro.xmlcore.tree import Element
from repro.relatedwork.trie import LinearTagMatcher, TagTrie
from repro.xmlcore.writer import serialize

# Text that is legal inside XML documents (no control chars except \t\n\r).
xml_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters="".join(
            chr(c) for c in range(0x20) if c not in (0x9, 0xA, 0xD)
        ) + "￾￿",
    ),
    max_size=80,
)

ncnames = st.text(alphabet=string.ascii_letters, min_size=1, max_size=10)

# Attribute names: like ncnames, but never the literal ``xmlns`` — per
# XML Namespaces that spelling is a namespace *declaration*, not an
# attribute, so it legitimately does not round-trip as attribute data.
attr_names = ncnames.filter(lambda name: name != "xmlns")


@given(xml_text)
def test_escape_text_round_trip(value):
    assert unescape(escape_text(value)) == value


@given(xml_text)
def test_escape_attribute_round_trip(value):
    assert unescape(escape_attribute(value)) == value


@given(xml_text)
def test_escaped_text_has_no_raw_markup(value):
    escaped = escape_text(value)
    assert "<" not in escaped
    # every remaining '&' must start an entity
    i = 0
    while (i := escaped.find("&", i)) != -1:
        assert escaped.find(";", i) != -1
        i += 1


def _element_trees():
    return st.recursive(
        st.builds(
            _leaf,
            ncnames,
            st.dictionaries(attr_names, xml_text, max_size=3),
            xml_text,
        ),
        lambda children: st.builds(_branch, ncnames, st.lists(children, max_size=4)),
        max_leaves=12,
    )


def _leaf(tag, attrs, text):
    e = Element(tag, attrs)
    if text:
        e.append(text)
    return e


def _branch(tag, children):
    e = Element(tag)
    for c in children:
        e.append(c)
    return e


@settings(max_examples=60)
@given(_element_trees())
def test_serialize_parse_round_trip(tree):
    assert parse(serialize(tree)).structurally_equal(tree)


@settings(max_examples=60)
@given(_element_trees())
def test_serialize_is_deterministic(tree):
    assert serialize(tree) == serialize(tree)


@settings(max_examples=40)
@given(
    st.dictionaries(
        st.text(alphabet=string.ascii_letters + ":/._-", min_size=0, max_size=30),
        st.integers(),
        max_size=20,
    )
)
def test_trie_agrees_with_linear_matcher(entries):
    trie = TagTrie()
    linear = LinearTagMatcher()
    for key, value in entries.items():
        trie.insert(key, value)
        linear.insert(key, value)
    assert len(trie) == len(linear)
    for key, value in entries.items():
        assert trie.lookup(key) == value == linear.lookup(key)
    for probe in list(entries) + ["missing", "", "Envelope"]:
        assert (probe in trie) == (probe in linear)


@settings(max_examples=40)
@given(st.lists(st.text(alphabet="ab", max_size=6), max_size=12))
def test_trie_longest_prefix_is_sound(keys):
    trie = TagTrie()
    for k in keys:
        trie.insert(k, k)
    probe = "abab"
    match = trie.longest_prefix(probe)
    candidates = [k for k in keys if probe.startswith(k)]
    if candidates:
        assert match is not None
        assert match[0] == max(candidates, key=len)
    else:
        assert match is None
