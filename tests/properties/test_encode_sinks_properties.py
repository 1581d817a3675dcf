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

The envelope writes a ``Parallel_Method`` body in one pass
(``write_pack``): a spliced entry whose names the writer has memoised is
its open tag, escaped ``requestID``, parts and end tag in one step, and
Fault and ``spi:Accepted`` trees go through the per-node loop in the same
writer.  Packs over several namespaces, mixing answers, calls (one-way or
not), Faults and acks, with odd ``requestID`` values and C0 controls,
under trace, deadline and WS-Security headers, must write the bytes the
tree writer writes for the same envelope as one element tree; and a
sealed Body must be the octets ``to_bytes`` sends.
"""

from datetime import date, datetime, time, timedelta, timezone

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import packformat
from repro.obs.trace import OBS_NS, TRACE_HEADER_TAG, TRACE_ID_ATTR
from repro.resilience.deadline import attach_deadline
from repro.soap import Envelope, SoapFault, serialize_rpc_request, serialize_rpc_response
from repro.soap.constants import (
    BODY_TAG,
    ENVELOPE_TAG,
    HEADER_TAG,
    ONE_WAY_ATTR,
    REQUEST_ID_ATTR,
    STANDARD_NSMAP,
    XSI_NS,
)
from repro.soap.serializer import EncodedEntry, accepted_response
from repro.soap.wssecurity import Credentials, attach_security_header
from repro.xmlcore.tree import Element
from repro.xmlcore.writer import serialize, serialize_bytes

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


# -- the one-pass pack body against the tree writer ----------------------------

NAMESPACES = ("urn:sinks", "urn:sinks:b", "urn:other")
request_ids = st.text(alphabet=st.sampled_from("r07&<>\"' é漢\x01\t"), min_size=1, max_size=6)
slots = st.one_of(
    st.tuples(st.just("answer"), st.sampled_from(NAMESPACES), encodable),
    st.tuples(st.just("call"), st.sampled_from(NAMESPACES), params, st.booleans()),
    st.tuples(st.just("fault"), c0_text),
    st.tuples(st.just("ack")),
)
headers = st.fixed_dictionaries({"trace": st.booleans(), "deadline": st.booleans(), "signed": st.booleans()})


def _slot_entries(slot, request_id: str) -> tuple:
    """The slot as the one-pass writer gets it (spliced where the codec
    encodes) and as the tree writer gets it (every entry a tree)."""
    kind = slot[0]
    if kind == "answer":
        _, uri, value = slot
        spliced = serialize_rpc_response(uri, "op", value)
        spliced.set(REQUEST_ID_ATTR, request_id)
        tree = _reference_entry(f"{{{uri}}}opResponse", {"return": value})
        tree.set(REQUEST_ID_ATTR, request_id)
        return spliced, tree
    if kind == "call":
        _, uri, call, one_way = slot
        attributes = ((ONE_WAY_ATTR, "true"),) if one_way else ()
        attributes += ((REQUEST_ID_ATTR, request_id),)
        tree = _reference_entry(f"{{{uri}}}op", call)
        tree.replace_attributes(attributes)
        return serialize_rpc_request(uri, "op", call, attributes), tree
    if kind == "fault":
        fault = SoapFault("Server", slot[1], detail=slot[1])
        made = fault.to_element(), fault.to_element()
    else:
        made = tuple(accepted_response(Element("op", {REQUEST_ID_ATTR: request_id})) for _ in "ab")
    for element in made:
        element.set(REQUEST_ID_ATTR, request_id)
    return made


def _header_entries(chosen: dict) -> list:
    entries = []
    if chosen["trace"]:
        entries.append(Element(TRACE_HEADER_TAG, {TRACE_ID_ATTR: "t<1>"}, nsmap={"obs": OBS_NS}))
    if chosen["deadline"]:
        envelope = Envelope()
        attach_deadline(envelope, 0.75)
        entries += envelope.header_entries
    return entries


def _tree_bytes(header_entries: list, pack: Element) -> bytes:
    """The tree writer alone: one element tree, the per-node loop."""
    root = Element(ENVELOPE_TAG, nsmap=dict(STANDARD_NSMAP))
    if header_entries:
        root.subelement(HEADER_TAG).extend(header_entries)
    root.subelement(BODY_TAG).append(pack)
    return serialize_bytes(root)


@_SETTINGS
@given(st.lists(st.tuples(slots, request_ids), min_size=1, max_size=6), headers)
def test_a_pack_body_writes_the_tree_writers_bytes(pack, chosen):
    spliced, trees = zip(*(_slot_entries(slot, request_id) for slot, request_id in pack))
    envelope = Envelope()
    envelope.header_entries = _header_entries(chosen)
    envelope.add_body(packformat.build_parallel_method(list(spliced), assign_ids=False))
    before = envelope.to_bytes()
    sealed = envelope.seal_body()
    # the sealed Body is what to_bytes sends, and sending it changes nothing
    assert envelope.to_bytes() == before
    assert before[before.index(b"<SOAP-ENV:Body>") : before.rindex(b"</SOAP-ENV:Envelope>")] == sealed
    if chosen["signed"]:  # signs the octets sealed above, which are then sent
        attach_security_header(envelope, Credentials("alice", b"secret"))
    tree = packformat.build_parallel_method(list(trees), assign_ids=False)
    assert envelope.to_bytes() == _tree_bytes(envelope.header_entries, tree)
