"""Related-work baselines (§2.2): per-message CPU optimizations.

These are orthogonal to SPI (they shrink per-message processing, SPI
shrinks message count): differential serialization (Abu-Ghazaleh et
al.), parameterized client-side caching (Devaram & Andresen), and the
tag-trie matching of Chiu et al.
"""

import pytest

from repro.relatedwork.diffser import DifferentialSerializer, ParameterizedMessageCache
from repro.soap.serializer import build_request_envelope
from repro.relatedwork.trie import LinearTagMatcher, TagTrie

NS = "urn:bench:weather"
CITIES = [f"City{i}" for i in range(100)]


def full_serialization():
    for city in CITIES:
        build_request_envelope(NS, "GetWeather", {"city": city, "country": "China"}).to_bytes()


def differential_serialization():
    ser = DifferentialSerializer()
    for city in CITIES:
        ser.serialize_request(NS, "GetWeather", {"city": city, "country": "China"})
    return ser


def parameterized_cache():
    cache = ParameterizedMessageCache()
    for city in CITIES:
        cache.get_or_build(NS, "GetWeather", {"city": city, "country": "China"})
    return cache


class TestSerializationBaselines:
    def test_full_serialization(self, benchmark):
        benchmark.group = "relatedwork: serialization of 100 requests"
        benchmark.pedantic(full_serialization, rounds=10, warmup_rounds=2, iterations=1)

    def test_differential_serialization(self, benchmark):
        benchmark.group = "relatedwork: serialization of 100 requests"
        ser = benchmark.pedantic(
            differential_serialization, rounds=10, warmup_rounds=2, iterations=1
        )
        assert ser.stats.hits == len(CITIES) - 1

    def test_parameterized_cache(self, benchmark):
        benchmark.group = "relatedwork: serialization of 100 requests"
        cache = benchmark.pedantic(
            parameterized_cache, rounds=10, warmup_rounds=2, iterations=1
        )
        assert cache.stats.hit_rate > 0.9


TAGS = [f"{{urn:svc{i % 17}}}operation{i}" for i in range(100)]


def lookup_all(matcher):
    for tag in TAGS:
        matcher.lookup(tag)


@pytest.mark.parametrize("factory", [LinearTagMatcher, TagTrie], ids=["linear", "trie"])
def test_tag_matching(benchmark, factory):
    benchmark.group = "relatedwork: tag matching (100 tags)"
    matcher = factory()
    for tag in TAGS:
        matcher.insert(tag, tag)
    benchmark.pedantic(lookup_all, args=(matcher,), rounds=20, warmup_rounds=5, iterations=10)


def full_deserialization(messages):
    from repro.soap.deserializer import parse_rpc_request
    from repro.soap.envelope import Envelope

    for raw in messages:
        parse_rpc_request(Envelope.parse(raw, server=True).first_body_entry())


def differential_deserialization(messages):
    from repro.relatedwork.diffdeser import DifferentialDeserializer

    dd = DifferentialDeserializer()
    for raw in messages:
        dd.deserialize(raw)
    return dd


@pytest.fixture(scope="module")
def message_stream():
    from repro.soap.serializer import build_request_envelope

    return [
        build_request_envelope(
            NS, "GetWeather", {"city": f"City-{i:03d}", "country": "China"}
        ).to_bytes()
        for i in range(100)
    ]


class TestDeserializationBaselines:
    def test_full_deserialization(self, benchmark, message_stream):
        benchmark.group = "relatedwork: deserialization of 100 requests"
        benchmark.pedantic(
            full_deserialization, args=(message_stream,), rounds=10, warmup_rounds=2, iterations=1
        )

    def test_differential_deserialization(self, benchmark, message_stream):
        benchmark.group = "relatedwork: deserialization of 100 requests"
        dd = benchmark.pedantic(
            differential_deserialization, args=(message_stream,),
            rounds=10, warmup_rounds=2, iterations=1,
        )
        assert dd.stats.hits == len(message_stream) - 1
