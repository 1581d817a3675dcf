"""Unit tests for SPI assemblers and dispatchers (paper §3.4–3.5)."""

import pytest

from repro.client.futures import InvocationFuture
from repro.core.assembler import ClientAssembler, ServerAssembler
from repro.core.dispatcher import ClientDispatcher, ServerDispatcher, spi_server_handlers
from repro.core.packformat import build_parallel_method, is_parallel_method
from repro.errors import PackError, SoapFaultError
from repro.server.handlers import HandlerChain, MessageContext
from repro.soap.constants import FAULT_SERVER, REQUEST_ID_ATTR
from repro.soap.envelope import Envelope
from repro.soap.fault import SoapFault
from repro.soap.serializer import (
    build_fault_envelope,
    serialize_rpc_request,
    serialize_rpc_response,
)

NS = "urn:svc:echo"


class TestClientAssembler:
    def test_add_call_returns_future_with_id(self):
        assembler = ClientAssembler(NS)
        f0 = assembler.add_call("echo", {"payload": "a"})
        f1 = assembler.add_call("echo", {"payload": "b"})
        assert (f0.request_id, f1.request_id) == ("r0", "r1")
        assert len(assembler) == 2

    def test_assemble_builds_packed_envelope(self):
        assembler = ClientAssembler(NS)
        assembler.add_call("echo", {"payload": "a"})
        assembler.add_call("reverse", {"payload": "b"})
        envelope = assembler.assemble()
        entry = envelope.first_body_entry()
        assert is_parallel_method(entry)
        ops = [c.local_name for c in entry.element_children()]
        assert ops == ["echo", "reverse"]

    def test_envelope_ids_match_future_ids(self):
        assembler = ClientAssembler(NS)
        futures = [assembler.add_call("echo", {"payload": str(i)}) for i in range(3)]
        envelope = assembler.assemble()
        wire_ids = [
            c.get(REQUEST_ID_ATTR)
            for c in envelope.first_body_entry().element_children()
        ]
        assert wire_ids == [f.request_id for f in futures]

    def test_assemble_with_headers(self):
        from repro.xmlcore.tree import Element

        assembler = ClientAssembler(NS)
        assembler.add_call("echo", {"payload": "x"})
        envelope = assembler.assemble(headers=[Element("{urn:h}tok")])
        assert len(envelope.header_entries) == 1

    def test_assemble_empty_raises(self):
        with pytest.raises(PackError):
            ClientAssembler(NS).assemble()


def packed_context(*entries):
    envelope = Envelope()
    envelope.add_body(build_parallel_method(list(entries)))
    return MessageContext.for_envelope(envelope)


def plain_context(entry):
    envelope = Envelope()
    envelope.add_body(entry)
    return MessageContext.for_envelope(envelope)


class TestServerDispatcher:
    def test_unpacks_parallel_method(self):
        context = packed_context(
            serialize_rpc_request(NS, "echo", {"payload": "a"}),
            serialize_rpc_request(NS, "echo", {"payload": "b"}),
        )
        dispatcher = ServerDispatcher()
        dispatcher.invoke_request(context)
        assert len(context.request_entries) == 2
        assert context.packed

    def test_plain_message_untouched(self):
        context = plain_context(serialize_rpc_request(NS, "echo", {"payload": "a"}))
        dispatcher = ServerDispatcher()
        dispatcher.invoke_request(context)
        assert len(context.request_entries) == 1
        assert not context.packed

    def test_multi_entry_non_packed_untouched(self):
        envelope = Envelope()
        envelope.add_body(serialize_rpc_request(NS, "echo", {"payload": "a"}))
        envelope.add_body(serialize_rpc_request(NS, "echo", {"payload": "b"}))
        context = MessageContext.for_envelope(envelope)
        ServerDispatcher().invoke_request(context)
        assert not context.packed

    def test_malformed_pack_raises(self):
        wrapper = build_parallel_method(
            [serialize_rpc_request(NS, "echo", {"payload": "a"})]
        )
        wrapper.element_children()[0].pop_attribute(REQUEST_ID_ATTR)
        context = plain_context(wrapper)
        with pytest.raises(PackError):
            ServerDispatcher().invoke_request(context)


class TestServerAssembler:
    def test_packs_responses_when_flagged(self):
        context = packed_context(serialize_rpc_request(NS, "echo", {"payload": "a"}))
        context.packed = True
        r0 = serialize_rpc_response(NS, "echo", "a")
        r0.set(REQUEST_ID_ATTR, "r0")
        r1 = serialize_rpc_response(NS, "echo", "b")
        r1.set(REQUEST_ID_ATTR, "r1")
        context.response_entries = [r0, r1]
        ServerAssembler().invoke_response(context)
        assert len(context.response_entries) == 1
        assert is_parallel_method(context.response_entries[0])

    def test_skips_unpacked_exchanges(self):
        context = plain_context(serialize_rpc_request(NS, "echo", {"payload": "a"}))
        response = serialize_rpc_response(NS, "echo", "a")
        context.response_entries = [response]
        ServerAssembler().invoke_response(context)
        assert context.response_entries == [response]


class TestHandlerPairThroughChain:
    def test_full_request_response_cycle(self):
        chain = HandlerChain(spi_server_handlers())
        context = packed_context(
            serialize_rpc_request(NS, "echo", {"payload": "a"}),
            serialize_rpc_request(NS, "echo", {"payload": "b"}),
        )
        chain.run_request(context)
        assert len(context.request_entries) == 2
        # emulate the executor: respond to each, copying ids
        responses = []
        for entry in context.request_entries:
            response = serialize_rpc_response(NS, "echo", entry.require("payload").text)
            response.set(REQUEST_ID_ATTR, entry.get(REQUEST_ID_ATTR))
            responses.append(response)
        context.response_entries = responses
        chain.run_response(context)
        assert len(context.response_entries) == 1
        assert is_parallel_method(context.response_entries[0])


def packed_response_envelope(*pairs):
    """pairs: (request_id, element)"""
    entries = []
    for rid, element in pairs:
        element.set(REQUEST_ID_ATTR, rid)
        entries.append(element)
    envelope = Envelope()
    envelope.add_body(build_parallel_method(entries, assign_ids=False))
    return envelope


class TestClientDispatcher:
    def test_resolves_in_request_order_despite_wire_order(self):
        f0 = InvocationFuture("echo", request_id="r0")
        f1 = InvocationFuture("echo", request_id="r1")
        envelope = packed_response_envelope(
            ("r1", serialize_rpc_response(NS, "echo", "second")),
            ("r0", serialize_rpc_response(NS, "echo", "first")),
        )
        ClientDispatcher().dispatch(envelope, [f0, f1])
        assert f0.result(timeout=0) == "first"
        assert f1.result(timeout=0) == "second"

    def test_per_request_fault_fails_only_that_future(self):
        f0 = InvocationFuture("echo", request_id="r0")
        f1 = InvocationFuture("echo", request_id="r1")
        envelope = packed_response_envelope(
            ("r0", serialize_rpc_response(NS, "echo", "good")),
            ("r1", SoapFault(FAULT_SERVER, "bad").to_element()),
        )
        ClientDispatcher().dispatch(envelope, [f0, f1])
        assert f0.result(timeout=0) == "good"
        assert isinstance(f1.exception(timeout=0), SoapFaultError)

    def test_missing_response_fails_future(self):
        f0 = InvocationFuture("echo", request_id="r0")
        f1 = InvocationFuture("echo", request_id="r1")
        envelope = packed_response_envelope(
            ("r0", serialize_rpc_response(NS, "echo", "only")),
        )
        ClientDispatcher().dispatch(envelope, [f0, f1])
        assert f0.result(timeout=0) == "only"
        assert isinstance(f1.exception(timeout=0), PackError)

    def test_envelope_fault_fails_all(self):
        f0 = InvocationFuture("echo", request_id="r0")
        f1 = InvocationFuture("echo", request_id="r1")
        envelope = build_fault_envelope(SoapFault(FAULT_SERVER, "total failure"))
        ClientDispatcher().dispatch(envelope, [f0, f1])
        assert isinstance(f0.exception(timeout=0), SoapFaultError)
        assert isinstance(f1.exception(timeout=0), SoapFaultError)

    def test_non_packed_response_fails_all_with_pack_error(self):
        f0 = InvocationFuture("echo", request_id="r0")
        envelope = Envelope()
        envelope.add_body(serialize_rpc_response(NS, "echo", "naked"))
        ClientDispatcher().dispatch(envelope, [f0])
        assert isinstance(f0.exception(timeout=0), PackError)
