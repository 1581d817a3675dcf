"""Property-based tests for SPI packing invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.futures import InvocationFuture
from repro.core.assembler import ClientAssembler
from repro.core.dispatcher import ClientDispatcher
from repro.core.oneway import accepted_response
from repro.core.packformat import build_parallel_method, unpack_parallel_method
from repro.errors import PackError, SoapFaultError
from repro.soap.constants import REQUEST_ID_ATTR
from repro.soap.envelope import Envelope
from repro.soap.fault import SoapFault
from repro.soap.serializer import serialize_rpc_request, serialize_rpc_response

NS = "urn:svc:prop"

payloads = st.lists(
    st.text(alphabet=string.printable.replace("\x0b", "").replace("\x0c", ""), max_size=40),
    min_size=1,
    max_size=20,
)


@settings(max_examples=50)
@given(payloads)
def test_pack_unpack_preserves_order_and_content(values):
    entries = [serialize_rpc_request(NS, "echo", {"payload": v}) for v in values]
    wrapper = build_parallel_method(entries)
    envelope = Envelope()
    envelope.add_body(wrapper)
    reparsed = Envelope.parse(envelope.to_bytes(), server=True)
    unpacked = unpack_parallel_method(reparsed.first_body_entry())
    assert len(unpacked) == len(values)
    assert [e.require("payload").text for e in unpacked] == values
    assert [e.get(REQUEST_ID_ATTR) for e in unpacked] == [f"r{i}" for i in range(len(values))]


@settings(max_examples=50)
@given(payloads)
def test_ids_unique_for_any_batch(values):
    entries = [serialize_rpc_request(NS, "echo", {"payload": v}) for v in values]
    wrapper = build_parallel_method(entries)
    ids = [e.get(REQUEST_ID_ATTR) for e in wrapper.element_children()]
    assert len(set(ids)) == len(ids)


FATES = st.sampled_from(["value", "fault", "accepted", "missing"])


@settings(max_examples=50)
@given(payloads, st.randoms(), st.data())
def test_dispatcher_correlates_any_response_permutation(values, rng, data):
    """Whatever order the server's application stage finishes in, and
    whichever entries fault, are acknowledged one-way or never come back,
    every future must receive exactly its own request's outcome."""
    fates = data.draw(st.lists(FATES, min_size=len(values), max_size=len(values)))
    fates[0] = "value"  # a Parallel_Method response is never empty
    assembler = ClientAssembler(NS)
    futures: list[InvocationFuture] = [
        assembler.add_call("echo", {"payload": v}) for v in values
    ]
    responses = []
    for i, (v, fate) in enumerate(zip(values, fates)):
        if fate == "missing":
            continue
        if fate == "value":
            response = serialize_rpc_response(NS, "echo", v)
        elif fate == "fault":
            response = SoapFault("Server", f"failed {i}").to_element()
        else:
            response = accepted_response(serialize_rpc_request(NS, "echo", {}))
        response.set(REQUEST_ID_ATTR, f"r{i}")
        responses.append(response)
    rng.shuffle(responses)
    envelope = Envelope()
    envelope.add_body(build_parallel_method(responses, assign_ids=False))
    wire = Envelope.parse(envelope.to_bytes(), server=True)
    ClientDispatcher().dispatch(wire, futures)
    for i, (future, expected, fate) in enumerate(zip(futures, values, fates)):
        if fate == "value":
            assert future.result(timeout=0) == expected
        elif fate == "accepted":
            assert future.result(timeout=0) is None
        elif fate == "fault":
            error = future.exception(timeout=0)
            assert isinstance(error, SoapFaultError)
            assert error.faultstring == f"failed {i}"
        else:
            error = future.exception(timeout=0)
            assert isinstance(error, PackError) and f"'r{i}'" in str(error)
