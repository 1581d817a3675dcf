"""Seeded-random property tests pinning the fast paths to the spec.

The lexer, escaper and writer all have bulk fast paths that replaced
character-by-character loops; these properties make sure they cannot
silently diverge from the behavior they replaced:

* escape/unescape round-trips over adversarial alphabets;
* ``serialize(parse(x)) == serialize(parse(serialize(parse(x))))``
  (parse∘serialize is idempotent — the writer's output is a fixed
  point of the parser);
* the pull cursor extracts exactly the entries the tree parser sees.
"""

import random
import string

import pytest

from repro.soap.constants import SOAP_ENV_NS
from repro.soap.envelope import Envelope, walk_envelope
from repro.xmlcore.escape import escape_attribute, escape_text, unescape
from repro.xmlcore import parse
from repro.xmlcore.tree import Element
from repro.xmlcore.treebuilder import XmlScanner
from repro.xmlcore.writer import serialize

# Alphabet skewed toward the characters the fast paths special-case.
_TEXT_ALPHABET = string.ascii_letters + string.digits + "&<>\"' \t\n;#中é🎉-._"
_NAME_ALPHABET = string.ascii_letters + string.digits + "._-"


def _random_text(rng: random.Random, max_len: int = 40) -> str:
    return "".join(
        rng.choice(_TEXT_ALPHABET) for _ in range(rng.randrange(max_len))
    )


def _random_name(rng: random.Random) -> str:
    return rng.choice(string.ascii_letters) + "".join(
        rng.choice(_NAME_ALPHABET) for _ in range(rng.randrange(8))
    )


def _random_element(rng: random.Random, depth: int = 0) -> Element:
    element = Element(_random_name(rng))
    for _ in range(rng.randrange(3)):
        element.set(_random_name(rng), _random_text(rng))
    for _ in range(rng.randrange(4) if depth < 3 else 0):
        if rng.random() < 0.5:
            text = _random_text(rng)
            if text:
                element.children.append(text)
        else:
            element.children.append(_random_element(rng, depth + 1))
    return element


@pytest.mark.parametrize("seed", range(20))
class TestEscapeRoundTrip:
    def test_text_round_trip(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            value = _random_text(rng, max_len=200)
            assert unescape(escape_text(value)) == value

    def test_attribute_round_trip(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            value = _random_text(rng, max_len=200)
            escaped = escape_attribute(value)
            assert '"' not in escaped and "<" not in escaped
            assert unescape(escaped) == value

    def test_escaped_text_parses_back(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            value = _random_text(rng, max_len=100)
            document = f"<r>{escape_text(value)}</r>"
            assert parse(document).text == value


@pytest.mark.parametrize("seed", range(20))
class TestSerializeParseFixedPoint:
    def test_parse_serialize_idempotent(self, seed):
        rng = random.Random(seed)
        tree = _random_element(rng)
        once = serialize(parse(serialize(tree)))
        twice = serialize(parse(once))
        assert once == twice

    def test_parse_recovers_structure(self, seed):
        rng = random.Random(seed)
        tree = _random_element(rng)
        assert parse(serialize(tree)).structurally_equal(tree)


@pytest.mark.parametrize("seed", range(10))
def test_pull_matches_tree_parse(seed):
    rng = random.Random(seed)
    envelope = Envelope()
    for _ in range(rng.randrange(1, 5)):
        envelope.add_body(_random_element(rng))
    document = envelope.to_string()

    pulled = list(walk_envelope(document, None, XmlScanner.read_element))
    full = Envelope.parse(document, server=True).body_entries
    assert len(pulled) == len(full)
    for a, b in zip(pulled, full):
        assert a.structurally_equal(b)


def test_unescape_rejects_bare_ampersand_fast_and_slow():
    # The bulk unescape must keep the strict error behavior of the
    # character loop it replaced.
    for bad in ("&", "a&", "&amp", "&;", "&bogus;", "&#xZZ;", "&#12x;", "&#0;"):
        with pytest.raises(Exception):
            unescape(bad)


def test_envelope_fixture_shape():
    # The canonical SOAP shape stays bit-stable through the fast path.
    envelope = Envelope()
    envelope.add_body(Element("{urn:op}echo"))
    document = envelope.to_string()
    assert SOAP_ENV_NS in document
    assert serialize(parse(document), declaration=True) == document
