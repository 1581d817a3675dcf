"""Property-based tests for the SOAP codecs."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soap.deserializer import parse_rpc_request, parse_rpc_response
from repro.relatedwork.diffser import DifferentialSerializer
from repro.soap.envelope import Envelope
from repro.soap.serializer import build_request_envelope, build_response_envelope

NS = "urn:svc:prop"

xml_safe_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters="".join(
            chr(c) for c in range(0x20) if c not in (0x9, 0xA, 0xD)
        ) + "￾￿",
    ),
    max_size=60,
)

param_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)

scalar_values = st.one_of(
    xml_safe_text,
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.binary(max_size=40),
    st.none(),
)

values = st.recursive(
    scalar_values,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(param_names, inner, max_size=4),
    ),
    max_leaves=10,
)


@settings(max_examples=60)
@given(st.dictionaries(param_names, values, max_size=5))
def test_request_round_trip(params):
    env = build_request_envelope(NS, "op", params)
    parsed = Envelope.parse(env.to_bytes(), server=True)
    req = parse_rpc_request(parsed.first_body_entry())
    assert req.operation == "op"
    assert req.namespace == NS
    assert _normalize(req.params) == _normalize(params)


@settings(max_examples=60)
@given(values)
def test_response_round_trip(result):
    env = build_response_envelope(NS, "op", result)
    parsed = Envelope.parse(env.to_bytes(), server=True)
    resp = parse_rpc_response(parsed.first_body_entry())
    assert _normalize(resp.value) == _normalize(result)


@settings(max_examples=40)
@given(st.lists(xml_safe_text, min_size=1, max_size=8))
def test_diffser_hits_decode_identically(cities):
    """Every differential-serialization hit must decode to the same
    request a cold serializer would produce."""
    ser = DifferentialSerializer()
    for city in cities:
        data = ser.serialize_request(NS, "GetWeather", {"city": city})
        env = Envelope.parse(data, server=True)
        req = parse_rpc_request(env.first_body_entry())
        assert req.params == {"city": city}
    assert ser.stats.hits == len(cities) - 1


def _normalize(value):
    """Tuples encode as Arrays and decode as lists; align for comparison."""
    if isinstance(value, tuple):
        return [_normalize(v) for v in value]
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    return value


@settings(max_examples=40)
@given(st.lists(xml_safe_text.filter(lambda s: len(s) >= 3), min_size=1, max_size=8))
def test_diffdeser_hits_equal_full_parse(cities):
    """Every differential-deserialization result must equal what a full
    parse produces, hit or miss."""
    from repro.relatedwork.diffdeser import DifferentialDeserializer
    from repro.soap.serializer import build_request_envelope

    dd = DifferentialDeserializer()
    for city in cities:
        raw = build_request_envelope(NS, "GetWeather", {"city": city}).to_bytes()
        fast = dd.deserialize(raw)
        cold = parse_rpc_request(Envelope.parse(raw, server=True).first_body_entry())
        assert fast.params == cold.params
        assert fast.operation == cold.operation
        assert fast.namespace == cold.namespace
