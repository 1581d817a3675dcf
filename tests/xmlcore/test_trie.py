"""Unit tests for the tag trie and its linear baseline."""

import pytest

from repro.relatedwork.trie import LinearTagMatcher, TagTrie


@pytest.fixture(params=[TagTrie, LinearTagMatcher])
def matcher(request):
    return request.param()


class TestCommonBehaviour:
    def test_insert_lookup(self, matcher):
        matcher.insert("Envelope", 1)
        assert matcher.lookup("Envelope") == 1

    def test_missing_returns_none(self, matcher):
        assert matcher.lookup("nope") is None

    def test_contains(self, matcher):
        matcher.insert("Body", "b")
        assert "Body" in matcher
        assert "Bod" not in matcher

    def test_replace(self, matcher):
        matcher.insert("k", 1)
        matcher.insert("k", 2)
        assert matcher.lookup("k") == 2
        assert len(matcher) == 1

    def test_len(self, matcher):
        for i, key in enumerate(["a", "ab", "abc", "b"]):
            matcher.insert(key, i)
        assert len(matcher) == 4

    def test_prefix_not_terminal(self, matcher):
        matcher.insert("GetWeather", 1)
        assert matcher.lookup("Get") is None

    def test_soap_tags(self, matcher):
        tags = ["Envelope", "Header", "Body", "Fault", "faultcode", "faultstring"]
        for i, t in enumerate(tags):
            matcher.insert(t, i)
        for i, t in enumerate(tags):
            assert matcher.lookup(t) == i


class TestTrieSpecific:
    def test_longest_prefix(self):
        t = TagTrie()
        t.insert("http://schemas.xmlsoap.org/", "soap")
        t.insert("http://schemas.xmlsoap.org/soap/envelope/", "env")
        match = t.longest_prefix("http://schemas.xmlsoap.org/soap/envelope/Body")
        assert match == ("http://schemas.xmlsoap.org/soap/envelope/", "env")

    def test_longest_prefix_none(self):
        t = TagTrie()
        t.insert("abc", 1)
        assert t.longest_prefix("xyz") is None

    def test_longest_prefix_partial(self):
        t = TagTrie()
        t.insert("ab", 1)
        t.insert("abcd", 2)
        assert t.longest_prefix("abc") == ("ab", 1)

    def test_keys_sorted(self):
        t = TagTrie()
        for key in ["b", "a", "ab"]:
            t.insert(key, None)
        assert list(t.keys()) == ["a", "ab", "b"]

    def test_empty_key(self):
        t = TagTrie()
        t.insert("", "root")
        assert t.lookup("") == "root"
        assert "" in t
