"""Dispatchers (paper §3.5).

"Dispatchers dispatch multiple services request data or services
response data, which are carried in one SOAP message, to different
services operations or to different client methods."

* :class:`ServerDispatcher` — request-side handler: detects a
  ``Parallel_Method`` body, validates it, and replaces the single
  wrapper entry with its M children so the architecture's executor
  (sequential in Fig. 1, application-stage workers in Fig. 2) runs one
  task per packed request.
* :class:`ClientDispatcher` — extracts the M response entries from the
  packed response envelope and resolves each call's future, including
  per-request faults.
"""

from __future__ import annotations

from repro.client.futures import InvocationFuture
from repro.core import packformat
from repro.errors import PackError
from repro.obs.trace import span as obs_span
from repro.server.handlers import Handler, MessageContext
from repro.soap.constants import FAULT_TAG
from repro.soap.deserializer import parse_rpc_response
from repro.soap.envelope import Envelope
from repro.soap.fault import SoapFault


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


class ClientDispatcher:
    """Routes packed response entries back to their futures."""

    def dispatch(self, envelope: Envelope, futures: list[InvocationFuture]) -> None:
        """Resolve every future from the packed response envelope.

        Robust to out-of-order children (correlated by requestID) and to
        per-request faults.  A missing response fails its future rather
        than hanging it; an envelope-level fault fails all of them.
        """
        entry = envelope.first_body_entry()
        if entry.tag == FAULT_TAG:
            error = SoapFault.from_element(entry).to_exception()
            for future in futures:
                if not future.done():
                    future.fail(error)
            return

        try:
            children = packformat.unpack_parallel_method(entry)
        except PackError as exc:
            for future in futures:
                if not future.done():
                    future.fail(exc)
            return

        from repro.core.oneway import resolve_if_accepted

        by_id = packformat.correlate(children)
        for future in futures:
            response = by_id.get(future.request_id or "")
            if response is None:
                future.fail(
                    PackError(
                        f"packed response is missing requestID "
                        f"'{future.request_id}' for operation '{future.operation}'"
                    )
                )
                continue
            if resolve_if_accepted(future, response):
                continue
            if response.tag == FAULT_TAG:
                future.fail(SoapFault.from_element(response).to_exception())
                continue
            try:
                future.resolve(parse_rpc_response(response).value)
            except BaseException as exc:
                future.fail(exc)


def spi_server_handlers() -> list[Handler]:
    """The handler pair to install on a server for SPI pack support.

    Mirrors the paper's Axis deployment: adding these to the chain is
    the *only* server-side change — service code is untouched.
    """
    from repro.core.assembler import ServerAssembler

    return [ServerDispatcher(), ServerAssembler()]
