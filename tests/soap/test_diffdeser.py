"""Tests for differential deserialization (server-side template bypass)."""

import pytest

from repro.relatedwork.diffdeser import DifferentialDeserializer
from repro.soap.serializer import build_request_envelope

NS = "urn:svc:weather"


def raw(operation="GetWeather", **params) -> bytes:
    return build_request_envelope(NS, operation, params).to_bytes()


class TestDifferentialDeserializer:
    def test_first_message_is_miss(self):
        dd = DifferentialDeserializer()
        request = dd.deserialize(raw(city="Beijing"))
        assert request.params == {"city": "Beijing"}
        assert dd.stats.misses == 1
        assert dd.stats.hits == 0
        assert dd.stats.templates == 1

    def test_second_similar_message_is_hit(self):
        dd = DifferentialDeserializer()
        dd.deserialize(raw(city="Beijing"))
        request = dd.deserialize(raw(city="Shanghai"))
        assert request.params == {"city": "Shanghai"}
        assert request.namespace == NS
        assert request.operation == "GetWeather"
        assert dd.stats.hits == 1

    def test_hit_equals_full_parse(self):
        dd = DifferentialDeserializer()
        dd.deserialize(raw(city="Beijing", country="China"))
        fast = dd.deserialize(raw(city="Guangzhou", country="China"))
        cold = DifferentialDeserializer().deserialize(
            raw(city="Guangzhou", country="China")
        )
        assert fast.params == cold.params
        assert dd.stats.hits == 1

    def test_escaped_values_round_trip(self):
        dd = DifferentialDeserializer()
        dd.deserialize(raw(city="plain"))
        request = dd.deserialize(raw(city="a<b&c>d"))
        assert request.params == {"city": "a<b&c>d"}
        assert dd.stats.hits == 1

    def test_unicode_values(self):
        dd = DifferentialDeserializer()
        dd.deserialize(raw(city="London"))
        assert dd.deserialize(raw(city="北京")).params == {"city": "北京"}

    def test_different_operation_falls_back(self):
        dd = DifferentialDeserializer()
        dd.deserialize(raw("GetWeather", city="Beijing"))
        request = dd.deserialize(raw("GetForecast", city="Beijing2"))
        assert request.operation == "GetForecast"
        assert dd.stats.hits == 0
        assert dd.stats.misses == 2

    def test_structural_change_falls_back(self):
        dd = DifferentialDeserializer()
        dd.deserialize(raw(city="Beijing"))
        request = dd.deserialize(raw(city="Beijing", country="China"))
        assert request.params == {"city": "Beijing", "country": "China"}
        assert dd.stats.hits == 0

    def test_value_containing_markup_is_never_a_hit(self):
        """A value span that decodes structure must force a full parse
        (soundness: escaped markup is fine, raw markup is structure)."""
        dd = DifferentialDeserializer()
        dd.deserialize(raw(city="plain"))
        # handcraft bytes where the value span contains a raw element
        template_hit = raw(city="zqmarkerqz")
        poisoned = template_hit.replace(b"zqmarkerqz", b"<sneaky/>")
        request = dd.deserialize(poisoned)
        # full parse decodes the struct-ish content instead
        assert dd.stats.hits == 0
        assert request.operation == "GetWeather"

    def test_ambiguous_value_never_templated(self):
        dd = DifferentialDeserializer()
        # 'city' appears both as value and inside the tag names? use a
        # value that occurs twice in the message bytes
        dd.deserialize(raw(city="GetWeather"))  # value == operation name
        assert dd.stats.templates == 0
        request = dd.deserialize(raw(city="other"))
        assert request.params == {"city": "other"}

    def test_non_string_params_never_templated(self):
        dd = DifferentialDeserializer()
        dd.deserialize(raw(n=5))
        assert dd.stats.templates == 0
        assert dd.deserialize(raw(n=7)).params == {"n": 7}
        assert dd.stats.hits == 0

    def test_empty_string_param_never_templated(self):
        dd = DifferentialDeserializer()
        dd.deserialize(raw(city=""))
        assert dd.stats.templates == 0

    def test_invalidate(self):
        dd = DifferentialDeserializer()
        dd.deserialize(raw(city="a"))
        dd.invalidate()
        dd.deserialize(raw(city="b"))
        assert dd.stats.hits == 0
        assert dd.stats.misses == 2

    def test_hit_rate(self):
        dd = DifferentialDeserializer()
        for city in ("zq-alpha", "zq-beta", "zq-gamma", "zq-delta"):
            dd.deserialize(raw(city=city))
        assert dd.stats.hit_rate == pytest.approx(0.75)

    def test_single_letter_values_too_ambiguous_to_template(self):
        """A value like 'a' occurs all over the envelope boilerplate, so
        no template is learned — conservative and correct."""
        dd = DifferentialDeserializer()
        dd.deserialize(raw(city="a"))
        assert dd.stats.templates == 0

    def test_multi_param_stream(self):
        dd = DifferentialDeserializer()
        for city, country in [("Beijing", "China"), ("Paris", "France"), ("Oslo", "Norway")]:
            request = dd.deserialize(raw(city=city, country=country))
            assert request.params == {"city": city, "country": country}
        assert dd.stats.hits == 2
