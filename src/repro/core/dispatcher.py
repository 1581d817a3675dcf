"""Dispatchers (paper §3.5).

"Dispatchers dispatch multiple services request data or services
response data, which are carried in one SOAP message, to different
services operations or to different client methods."

* :class:`ServerDispatcher` — request-side handler: detects a
  ``Parallel_Method`` body, validates it, and replaces the single
  wrapper entry with its M children so the architecture's executor
  (sequential in Fig. 1, application-stage workers in Fig. 2) runs one
  task per packed request.
* :func:`pack_results` / :class:`ClientDispatcher` — extracts the M
  response entries from the packed response envelope into one result
  array, per-request faults included, and completes the calls' futures
  from it.
"""

from __future__ import annotations

from repro.client.futures import InvocationFuture, settle
from repro.core import packformat
from repro.core.oneway import is_accepted
from repro.errors import PackError
from repro.obs.trace import span as obs_span
from repro.server.handlers import Handler, MessageContext
from repro.soap.constants import FAULT_TAG, REQUEST_ID_ATTR
from repro.soap.deserializer import parse_rpc_response
from repro.soap.envelope import Envelope
from repro.soap.fault import SoapFault
from repro.xmlcore.tree import Element


class ServerDispatcher(Handler):
    """Request side of the SPI server handler pair."""

    name = "spi-server-dispatcher"

    def __init__(self) -> None:
        self.packed_messages = 0
        self.unpacked_requests = 0

    def invoke_request(self, context: MessageContext) -> None:
        entries = context.request_entries
        if len(entries) != 1 or not packformat.is_parallel_method(entries[0]):
            return
        with obs_span("spi.unpack") as unpack_span:
            children = packformat.unpack_parallel_method(entries[0])
            unpack_span.detail = f"entries={len(children)}"
        context.request_entries = children
        context.packed = True
        self.packed_messages += 1
        self.unpacked_requests += len(children)


_MISSING = object()  # a slot whose requestID has not come back


def pack_results(envelope: Envelope, handles: list) -> list:
    """The pack's result array: one slot per handle, in handle order.

    ``handles`` carry the ``request_id`` (and ``operation``) each slot
    answers.  One pass over the response children fills a slot with the
    value, the entry's fault exception, ``None`` for an ``spi:Accepted``
    ack, or a :class:`PackError` when its requestID never came back.  An
    envelope-level fault or a malformed pack fills every slot with it.
    """
    entry = envelope.first_body_entry()
    if entry.tag == FAULT_TAG:
        return [SoapFault.from_element(entry).to_exception()] * len(handles)
    try:
        children = packformat.unpack_parallel_method(entry)
    except PackError as exc:
        return [exc] * len(handles)
    index_of = {handle.request_id: index for index, handle in enumerate(handles)}
    slots: list = [_MISSING] * len(handles)
    for child in children:
        index = index_of.get(child.get(REQUEST_ID_ATTR))
        if index is not None:
            slots[index] = _slot_of(child)
    for index, slot in enumerate(slots):
        if slot is _MISSING:
            handle = handles[index]
            slots[index] = PackError(
                f"packed response is missing requestID "
                f"'{handle.request_id}' for operation '{handle.operation}'"
            )
    return slots


def _slot_of(response: Element):
    if is_accepted(response):
        return None
    if response.tag == FAULT_TAG:
        return SoapFault.from_element(response).to_exception()
    try:
        return parse_rpc_response(response).value
    except Exception as exc:
        return exc


class ClientDispatcher:
    """Routes packed response entries back to their futures."""

    def dispatch(self, envelope: Envelope, futures: list[InvocationFuture]) -> None:
        """Complete every future from the packed response envelope.

        Robust to out-of-order children (correlated by requestID) and to
        per-request faults; see :func:`pack_results`.
        """
        settle(futures, pack_results(envelope, futures))


def spi_server_handlers() -> list[Handler]:
    """The handler pair to install on a server for SPI pack support.

    Mirrors the paper's Axis deployment: adding these to the chain is
    the *only* server-side change — service code is untouched.
    """
    from repro.core.assembler import ServerAssembler

    return [ServerDispatcher(), ServerAssembler()]
