"""Assemblers (paper §3.4).

"Assemblers pack several services request data, or services response
data, which are carried by multiple SOAP messages in general model,
into one SOAP message.  Assemblers exist both on client and server."

* :class:`ClientAssembler` — congregates multiple service request data
  into one SOAP body; each call's future views one slot of the pack's
  single :class:`~repro.client.futures.ResultArray`.
* :class:`ServerAssembler` — a response-side handler that congregates
  the response entries produced by the application stage back into a
  single ``Parallel_Method`` body entry.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.client.futures import InvocationFuture, ResultArray
from repro.core import packformat
from repro.obs.trace import span as obs_span
from repro.server.handlers import Handler, MessageContext
from repro.soap.envelope import Envelope
from repro.soap.serializer import serialize_rpc_request
from repro.xmlcore.tree import Element


class ClientAssembler:
    """Builds one packed request envelope for a batch of calls."""

    def __init__(self, namespace: str) -> None:
        self.namespace = namespace
        self.results = ResultArray()
        self._entries: list[Element] = []
        self._futures: list[InvocationFuture] = []

    def add_call(
        self,
        operation: str,
        params: Mapping[str, Any],
        *,
        namespace: str | None = None,
        one_way: bool = False,
    ) -> InvocationFuture:
        """Queue one call.

        ``namespace`` overrides the assembler default, allowing one
        packed message to address several services living in the same
        container — the travel-agent scenario packs queries to three
        *different* airline services this way.  ``one_way`` marks the
        entry fire-and-forget (see :mod:`repro.core.oneway`).
        """
        entry = serialize_rpc_request(namespace or self.namespace, operation, params)
        if one_way:
            from repro.core.oneway import mark_one_way

            mark_one_way(entry)
        future = self.results.add(operation, packformat.request_id(len(self._entries)))
        self._entries.append(entry)
        self._futures.append(future)
        return future

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def futures(self) -> list[InvocationFuture]:
        return list(self._futures)

    def assemble(self, *, headers: list[Element] | None = None) -> Envelope:
        """Pack everything added so far into one envelope.

        IDs assigned by :func:`packformat.build_parallel_method` match
        the ids pre-assigned to the futures because both use the same
        sequential scheme.
        """
        wrapper = packformat.build_parallel_method(self._entries, assign_ids=True)
        envelope = Envelope()
        for header in headers or []:
            envelope.add_header(header)
        envelope.add_body(wrapper)
        return envelope


class ServerAssembler(Handler):
    """Response side of the SPI server handler pair.

    Runs only when the request was packed (``context.packed``, set by the
    :class:`~repro.core.dispatcher.ServerDispatcher`); folds the M
    response entries back into one Parallel_Method so the protocol
    stage serializes a single envelope.
    """

    name = "spi-server-assembler"

    def invoke_response(self, context: MessageContext) -> None:
        if not context.packed:
            return
        # ids were copied request→response by the container, so no
        # reassignment here
        with obs_span("spi.pack", detail=f"entries={len(context.response_entries)}"):
            wrapper = packformat.build_parallel_method(
                list(context.response_entries), assign_ids=False
            )
        context.response_entries = [wrapper]
