"""Unit tests for differential serialization and the message cache."""

import pytest

from repro.relatedwork.diffser import DifferentialSerializer, ParameterizedMessageCache
from repro.soap.envelope import Envelope
from repro.soap.deserializer import parse_rpc_request

NS = "urn:svc:weather"


def decode(data: bytes):
    env = Envelope.parse(data, server=True)
    return parse_rpc_request(env.first_body_entry())


class TestDifferentialSerializer:
    def test_first_send_is_miss(self):
        ser = DifferentialSerializer()
        ser.serialize_request(NS, "GetWeather", {"city": "Beijing"})
        assert ser.stats.misses == 1
        assert ser.stats.hits == 0

    def test_second_similar_send_is_hit(self):
        ser = DifferentialSerializer()
        ser.serialize_request(NS, "GetWeather", {"city": "Beijing"})
        ser.serialize_request(NS, "GetWeather", {"city": "Shanghai"})
        assert ser.stats.hits == 1

    def test_hit_output_decodes_correctly(self):
        ser = DifferentialSerializer()
        ser.serialize_request(NS, "GetWeather", {"city": "Beijing", "country": "China"})
        data = ser.serialize_request(NS, "GetWeather", {"city": "Shanghai", "country": "China"})
        req = decode(data)
        assert req.operation == "GetWeather"
        assert req.params == {"city": "Shanghai", "country": "China"}

    def test_hit_equals_cold_serialization(self):
        warm = DifferentialSerializer()
        warm.serialize_request(NS, "op", {"a": "first"})
        hot = warm.serialize_request(NS, "op", {"a": "second"})
        cold = DifferentialSerializer().serialize_request(NS, "op", {"a": "second"})
        assert hot == cold

    def test_values_needing_escape_spliced_safely(self):
        ser = DifferentialSerializer()
        ser.serialize_request(NS, "op", {"a": "plain"})
        data = ser.serialize_request(NS, "op", {"a": "a<b&c>d"})
        assert decode(data).params == {"a": "a<b&c>d"}

    def test_different_param_names_miss(self):
        ser = DifferentialSerializer()
        ser.serialize_request(NS, "op", {"a": "x"})
        ser.serialize_request(NS, "op", {"b": "x"})
        assert ser.stats.misses == 2

    def test_different_types_miss(self):
        ser = DifferentialSerializer()
        ser.serialize_request(NS, "op", {"a": "x"})
        data = ser.serialize_request(NS, "op", {"a": 5})
        assert ser.stats.misses == 2
        assert decode(data).params == {"a": 5}

    def test_non_string_params_never_templated(self):
        ser = DifferentialSerializer()
        ser.serialize_request(NS, "op", {"a": 1})
        ser.serialize_request(NS, "op", {"a": 2})
        assert ser.stats.hits == 0

    def test_operations_cached_independently(self):
        ser = DifferentialSerializer()
        ser.serialize_request(NS, "op1", {"a": "x"})
        ser.serialize_request(NS, "op2", {"a": "x"})
        ser.serialize_request(NS, "op1", {"a": "y"})
        assert ser.stats.hits == 1
        assert ser.stats.misses == 2

    def test_invalidate_all(self):
        ser = DifferentialSerializer()
        ser.serialize_request(NS, "op", {"a": "x"})
        ser.invalidate()
        ser.serialize_request(NS, "op", {"a": "y"})
        assert ser.stats.hits == 0

    def test_invalidate_single_operation(self):
        ser = DifferentialSerializer()
        ser.serialize_request(NS, "op1", {"a": "x"})
        ser.serialize_request(NS, "op2", {"a": "x"})
        ser.invalidate(NS, "op1")
        ser.serialize_request(NS, "op1", {"a": "y"})
        ser.serialize_request(NS, "op2", {"a": "y"})
        assert ser.stats.hits == 1

    def test_no_params_round_trips(self):
        ser = DifferentialSerializer()
        data = ser.serialize_request(NS, "ping", {})
        assert decode(data).operation == "ping"

    def test_hit_rate(self):
        ser = DifferentialSerializer()
        for city in ["a", "b", "c", "d"]:
            ser.serialize_request(NS, "op", {"city": city})
        assert ser.stats.hit_rate == pytest.approx(0.75)

    def test_many_params_order_preserved(self):
        ser = DifferentialSerializer()
        params1 = {f"p{i}": f"v{i}" for i in range(10)}
        ser.serialize_request(NS, "op", params1)
        params2 = {f"p{i}": f"w{i}" for i in range(10)}
        assert decode(ser.serialize_request(NS, "op", params2)).params == params2


class TestParameterizedMessageCache:
    def test_facade_behaviour(self):
        cache = ParameterizedMessageCache()
        cache.get_or_build(NS, "op", {"a": "x"})
        data = cache.get_or_build(NS, "op", {"a": "y"})
        assert cache.stats.hits == 1
        assert decode(data).params == {"a": "y"}
