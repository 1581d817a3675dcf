"""Differential: an RPC entry written through the splice against its tree.

``serialize_rpc_request`` / ``serialize_rpc_response`` render an entry's
values to markup parts when they are called; inside an envelope the
writer splices those parts.  The same entry's tree (what a reader of its
``children`` gets, parsed from those parts) written by the writer, and
the reference ladders of ``tests/soap/reference_codec.py`` written the
same way, must give the same bytes, packed and unpacked, for every value
the codec accepts — C0 control characters included, which
``escape_text`` passes through and the writer has always written as they
are.  For every value the codec refuses, ``serialize_rpc_*`` itself must
raise the reference's ``SerializationError`` (type and message), so
nothing is left to fail when the envelope is written.
"""

from datetime import date, datetime, time, timedelta, timezone

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import packformat
from repro.soap import Envelope, serialize_rpc_request, serialize_rpc_response
from repro.soap.constants import XSI_NS
from repro.soap.serializer import EncodedEntry
from repro.xmlcore.tree import Element
from repro.xmlcore.writer import serialize

from ..soap import reference_codec
from .test_codec_properties import (
    EDGES,
    Level,
    Name,
    Point,
    _containers,
    _containers_and_bad_structs,
    encodable_scalars,
    unencodable_scalars,
)

_SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
NS = "urn:sinks"

# The C0 controls the writer passes through, beside ordinary text.
C0 = "".join(chr(c) for c in range(0x20) if c not in (0x9, 0xA, 0xD))
c0_text = st.text(alphabet=st.sampled_from(C0 + "ab<&>\"' \r\n\té"), max_size=12)
scalars = st.one_of(encodable_scalars, c0_text, st.builds(Name, c0_text))
encodable = st.recursive(scalars, _containers, max_leaves=12)
anything = st.recursive(
    st.one_of(scalars, scalars, unencodable_scalars), _containers_and_bad_structs, max_leaves=12
)
params = st.dictionaries(st.sampled_from(["a", "b", "records", "é", "item"]), encodable, max_size=3)

EDGE_VALUES = [
    Level.LOW, Level.HUGE, Name("a<b"), Point(1, "x"), Point([], {}),
    datetime(2006, 9, 25, 12, 30, 45), datetime(2006, 9, 25, 12, 30, 45, 5, timezone(timedelta(hours=8))),
    date(2006, 9, 25), time(12, 30, 45, 7), b"", b"\x00\xff", "", [], (), {},
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
    *EDGES, None, True, False, C0, "\x01DIFFSER0\x01", "a]]>b", "\r\n",
]  # fmt: skip


def _reference_entry(tag: str, values: dict) -> Element:
    entry = Element(tag)
    for name, value in values.items():
        entry.append(reference_codec.encode_value(name, value))
    return entry


def _envelope_bytes(entries: list, packed: bool) -> bytes:
    envelope = Envelope()
    if packed:
        for index, entry in enumerate(entries):
            entry.set("requestID", packformat.request_id(index))
        envelope.add_body(packformat.build_parallel_method(entries, assign_ids=False))
    else:
        for entry in entries:
            envelope.add_body(entry)
    return envelope.to_bytes()


def _three_ways(encode, tag, values_of, calls, packed):
    """Bytes of the spliced entries, of the same entries' trees, and of
    the reference's trees, each in one envelope."""
    spliced = [encode(call) for call in calls]
    trees = [encode(call) for call in calls]
    for entry in trees:
        assert isinstance(entry, EncodedEntry) and entry.parts is not None
        assert isinstance(entry.children, list)  # a reader: now the tree is written
        assert entry.parts is None
    reference = [_reference_entry(tag, values_of(call)) for call in calls]
    return tuple(_envelope_bytes(entries, packed) for entries in (spliced, trees, reference))


@_SETTINGS
@given(st.lists(params, min_size=1, max_size=3), st.booleans())
def test_requests_write_equal_bytes_three_ways(calls, packed):
    spliced, tree, reference = _three_ways(
        lambda call: serialize_rpc_request(NS, "op", call), f"{{{NS}}}op", dict, calls, packed
    )
    assert spliced == tree == reference


@_SETTINGS
@given(st.lists(encodable, min_size=1, max_size=3), st.booleans())
def test_responses_write_equal_bytes_three_ways(values, packed):
    spliced, tree, reference = _three_ways(
        lambda value: serialize_rpc_response(NS, "op", value),
        f"{{{NS}}}opResponse",
        lambda value: {"return": value},
        values,
        packed,
    )
    assert spliced == tree == reference


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
@pytest.mark.parametrize("packed", [False, True])
def test_edge_values_write_equal_bytes_three_ways(value, packed):
    calls = [{"a": value, "b": [value], "c": {"m": value}}]
    spliced, tree, reference = _three_ways(
        lambda call: serialize_rpc_request(NS, "op", call), f"{{{NS}}}op", dict, calls, packed
    )
    assert spliced == tree == reference


def _rejection(function, *args):
    try:
        function(*args)
    except Exception as exc:  # the differential is about *which* exception
        return type(exc), str(exc)
    return None


@_SETTINGS
@given(anything)
def test_refused_values_raise_at_the_call_as_the_reference_does(value):
    refused = _rejection(reference_codec.encode_value, "v", value)
    for encode in (
        lambda: serialize_rpc_request(NS, "op", {"v": value}),
        lambda: serialize_rpc_response(NS, "op", value),
    ):
        assert _rejection(encode) == refused
        if refused is None:  # nothing is left to fail when it is written
            _envelope_bytes([encode()], packed=False)


# -- where the splice does not hold, the entry's tree is written ---------------


@_SETTINGS
@given(params)
def test_an_entry_outside_any_envelope_writes_its_tree(call):
    # no xsi in scope: the writer declares it per value, as it always has
    entry = serialize_rpc_request(NS, "op", call)
    assert serialize(entry) == serialize(_reference_entry(f"{{{NS}}}op", call))


@pytest.mark.parametrize(
    "nsmap",
    [
        {"xsi": "urn:not-xsi"},  # xsi rebound
        {"": "urn:default"},  # a default namespace the value tags would fall into
        {"xsi": "urn:not-xsi", "i": XSI_NS},  # XSI_NS bound, but not to xsi
        {"xsi": XSI_NS, "": "urn:default"},
    ],
)
@pytest.mark.parametrize("value", [{"k": [1, "a<b", None]}, "x", [], 2**40])
def test_an_entry_under_a_rebinding_element_writes_its_tree(nsmap, value):
    def written(entry):
        envelope = Envelope()
        envelope.add_body(Element("{urn:wrap}wrap", nsmap=nsmap))
        envelope.body_entries[0].append(entry)
        return envelope.to_bytes()

    entry = serialize_rpc_response(NS, "op", value)
    assert written(entry) == written(_reference_entry(f"{{{NS}}}opResponse", {"return": value}))
