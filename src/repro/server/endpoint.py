"""SOAP-over-HTTP endpoint: the HTTP app in front of the container.

Turns an :class:`HttpRequest` into an :class:`HttpResponse`:

1. parse the envelope (protocol processing), decoding the RPC entries
   straight off the scanner;
2. run the request handler chain (where SPI unpacking happens);
3. fault if a mustUnderstand header survived un-understood;
4. hand the request entries to the server's executor;
5. run the response handler chain (where SPI re-packing happens);
6. serialize the response envelope.

GET requests with a ``wsdl`` query string serve generated WSDL, as
Axis does.

The endpoint counts per message, into its container's registry:
``soap.messages`` (envelopes parsed), ``soap.reader_fallbacks`` (those
the scanner left to the tree source, ``Envelope.read_by``),
``soap.faults`` (whole-message faults), ``soap.wsdl_requests``,
``soap.packed_messages`` and the ``soap.pack_degree`` sketch — entries
per message, whose mean is the amortization SPI exists to raise above
1.0 and whose sum is the entries handed to the executor.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import FAULTCODE_TABLE, ReproError, fault_class_of
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.obs.trace import (
    TRACE_HEADER_TAG,
    TRACE_ID_ATTR,
    Observability,
    activate,
    current_trace_id,
    span as obs_span,
)
from repro.resilience.deadline import DEADLINE_HEADER_TAG, extract_deadline
from repro.soap.constants import (
    FAULT_CLIENT,
    FAULT_MUST_UNDERSTAND,
    FAULT_TAG,
    SOAP_CONTENT_TYPE,
)
from repro.soap.deserializer import decode_request_envelope
from repro.soap.envelope import Envelope
from repro.soap.fault import SoapFault, fault_code_of
from repro.server.container import ServiceContainer
from repro.server.handlers import HandlerChain, MessageContext
from repro.wsdl.generator import wsdl_for_service
from repro.xmlcore.tree import Element

# The executor gives each (possibly unpacked) request entry one slot; a
# shed entry, or one past ``context.deadline``, gets a fault of its own.
Executor = Callable[[list[Element], MessageContext], list[Element]]

# HTTP status for a whole-message fault, by local faultcode.  Busy maps
# to 503 (shed, retry later) and Timeout to 504 (deadline expired);
# everything else keeps the SOAP 1.1 default of 500.
FAULTCODE_HTTP_STATUS = {
    code: status for code, (_, status) in FAULTCODE_TABLE.items()
}


class SoapEndpoint:
    """HTTP app implementing the SOAP binding over a ServiceContainer."""

    def __init__(
        self,
        container: ServiceContainer,
        executor: Executor,
        *,
        chain: HandlerChain | None = None,
        observability: Observability | None = None,
    ) -> None:
        self.container = container
        self.chain = chain if chain is not None else HandlerChain()
        self._executor = executor
        self._obs = observability
        registry = container.registry
        self._messages = registry.counter("soap.messages")
        self._fallbacks = registry.counter("soap.reader_fallbacks")
        self._faults = registry.counter("soap.faults")
        self._wsdl_requests = registry.counter("soap.wsdl_requests")
        self._packed = registry.counter("soap.packed_messages")
        self._pack_degree = registry.sketch("soap.pack_degree")

    # -- HTTP entry point ---------------------------------------------------

    def __call__(self, request: HttpRequest) -> HttpResponse:
        if request.method == "GET":
            return self._handle_get(request)
        if request.method != "POST":
            return HttpResponse(405, Headers({"Allow": "POST, GET"}), b"")
        return self._handle_soap(request)

    # -- WSDL ------------------------------------------------------------------

    def _handle_get(self, request: HttpRequest) -> HttpResponse:
        path, _, query = request.path.partition("?")
        if path.rstrip("/") in ("", "/services") and not query:
            return self._services_index()
        if query.lower() != "wsdl":
            return HttpResponse(404, body=b"only ?wsdl GETs and /services are served")
        self._wsdl_requests.inc()
        wanted = path.rstrip("/").rsplit("/", 1)[-1]
        for service in self.container.services():
            if service.name == wanted:
                try:
                    document = wsdl_for_service(service.describe(location=path))
                except ReproError as exc:
                    # a WSDL generation failure must not escape as an
                    # unclassified 500 (fault-flow-escape invariant)
                    self._faults.inc()
                    return HttpResponse(
                        500, body=f"WSDL generation failed: {exc}".encode()
                    )
                return HttpResponse(
                    200, Headers({"Content-Type": "text/xml"}), document.encode("utf-8")
                )
        return HttpResponse(404, body=f"no service named '{wanted}'".encode())

    def _services_index(self) -> HttpResponse:
        """Axis-style deployed-services listing at GET /services."""
        lines = ["Deployed services:", ""]
        for service in self.container.services():
            lines.append(f"{service.name}  ({service.namespace})")
            lines.append(f"  wsdl: /services/{service.name}?wsdl")
            for op_name in service.operation_names():
                lines.append(f"  - {op_name}")
            lines.append("")
        return HttpResponse(
            200,
            Headers({"Content-Type": "text/plain; charset=utf-8"}),
            "\n".join(lines).encode("utf-8"),
        )

    # -- SOAP --------------------------------------------------------------------

    def _handle_soap(self, request: HttpRequest) -> HttpResponse:
        try:
            # Header and body entries come straight off the scanner's pull
            # front, no scaffold tree, and the entries are decoded there too.
            with obs_span("soap.parse", detail=f"{len(request.body)}B"):
                envelope = decode_request_envelope(request.body)
        except ReproError as exc:
            self._faults.inc()
            fault = SoapFault(FAULT_CLIENT, f"unparseable SOAP message: {exc}")
            return self._fault_response(fault, status=400)
        self._messages.inc()
        if envelope.read_by == "tree":
            self._fallbacks.inc()
        if self._obs is not None:
            self._adopt_soap_trace(envelope)

        context = MessageContext.for_envelope(envelope)
        # Deadline propagation: the header is mustUnderstand=false, so
        # understanding it here is an upgrade, not a requirement.
        context.deadline = extract_deadline(envelope)
        context.understood_headers.add(DEADLINE_HEADER_TAG)
        try:
            self.chain.run_request(context)
        except ReproError as exc:
            self._faults.inc()
            return self._fault_response(SoapFault.from_exception(exc), status=500)
        self._pack_degree.record(len(context.request_entries))
        if context.packed:
            self._packed.inc()

        missed = envelope.unprocessed_must_understand(context.understood_headers)
        if missed:
            self._faults.inc()
            fault = SoapFault(
                FAULT_MUST_UNDERSTAND,
                f"mustUnderstand header <{missed[0].tag}> was not processed",
            )
            return self._fault_response(fault, status=500)

        context.response_entries = self._executor(context.request_entries, context)
        if self._obs is not None and self._obs.store is not None:
            # Packed responses carry per-entry faults inside an HTTP 200
            # — invisible to the status-based flagging at completion
            # time.  Mark the trace now, while the entries are still
            # unpacked, so tail sampling always retains it.
            self._mark_entry_faults(context.response_entries)
        # Response phase: handler chain and serialization were the last
        # dispatch segment that could leak a ReproError to the HTTP
        # layer as an unclassified 500 (found by fault-flow-escape).
        try:
            self.chain.run_response(context)
            with obs_span("soap.serialize") as serialize_span:
                response_envelope = Envelope()
                response_envelope.body_entries = list(context.response_entries)
                body = response_envelope.to_bytes()
                serialize_span.detail = f"{len(body)}B"
        except ReproError as exc:
            self._faults.inc()
            return self._fault_response(SoapFault.from_exception(exc), status=500)

        status = 200
        if (
            not context.packed
            and len(context.response_entries) == 1
            and context.response_entries[0].tag == FAULT_TAG
        ):
            code = fault_code_of(context.response_entries[0]) or ""
            status = FAULTCODE_HTTP_STATUS.get(code, 500)
            self._faults.inc()
        return HttpResponse(
            status, Headers({"Content-Type": SOAP_CONTENT_TYPE}), body
        )

    def _adopt_soap_trace(self, envelope: Envelope) -> None:
        """Re-home the ambient trace onto the SOAP-carried trace id.

        The client sends the id twice — HTTP header and a
        mustUnderstand=false SOAP header entry.  If an intermediary
        stripped the HTTP header, the HTTP layer minted a fresh id;
        adopting the envelope's copy here stitches the server spans back
        onto the client's trace.
        """
        header = envelope.find_header(TRACE_HEADER_TAG)
        if header is None:
            return
        carried = header.get(TRACE_ID_ATTR)
        if carried and carried != current_trace_id():
            activate(self._obs.tracer, carried)

    def _mark_entry_faults(self, entries: list[Element]) -> None:
        """Flag the active trace in the span store with each entry
        fault's class (the store maps it to shed/deadline/fault)."""
        trace_id = current_trace_id()
        if trace_id is None:
            return
        store = self._obs.store
        for entry in entries:
            if entry.tag != FAULT_TAG:
                continue
            store.mark(trace_id, fault_class_of(fault_code_of(entry) or ""))

    def _fault_response(self, fault: SoapFault, *, status: int) -> HttpResponse:
        envelope = Envelope()
        envelope.add_body(fault.to_element())
        return HttpResponse(
            status,
            Headers({"Content-Type": SOAP_CONTENT_TYPE}),
            envelope.to_bytes(),
        )
