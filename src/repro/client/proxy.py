"""Dynamic service proxy — the classic one-call-one-message client.

Every client entry point (``call``, the invokers, the pack path) goes
through :meth:`ServiceProxy.exchange`, which runs PROTOCOL.md §10's
client steps in order, and every call reaches the server:

1. **deadline** — each attempt re-bases the ``<res:Deadline>`` header
   and its wire timeout on the whole-call budget left;
2. **attempt** — one wire send;
3. **retry classification** — a retryable failure goes round 1–2 again
   under the :class:`CallPolicy`, while budget remains.

Construct through :class:`~repro.client.config.ClientConfig` +
:func:`~repro.client.config.build_proxy`.
"""

from __future__ import annotations

import functools
from typing import Any, NamedTuple

from repro.client.config import ClientConfig
from repro.errors import HttpError, ReproError, SoapFaultError, TransportError
from repro.http.compression import compress
from repro.http.connection import ConnectionPool, HttpConnection
from repro.http.message import Headers, HttpRequest
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    OBS_NS, TRACE_HEADER_TAG, TRACE_HTTP_HEADER, TRACE_ID_ATTR, new_trace_id,
)
from repro.resilience.deadline import attach_deadline, wire_timeout
from repro.resilience.policy import (
    DEFAULT_POLICY, CallPolicy, Deadline, RetryState, execute_with_policy,
)
from repro.soap.constants import SOAP_ACTION_HEADER, SOAP_CONTENT_TYPE
from repro.soap.deserializer import decode_response_envelope, parse_rpc_response
from repro.soap.envelope import Envelope
from repro.soap.serializer import build_request_envelope
from repro.wsdl.parser import parse_wsdl
from repro.xmlcore.tree import Element


def _fault_of(response) -> Exception:
    """The SoapFaultError carried by a 503/504 body, or an HttpError when
    the body is not a parseable fault envelope."""
    try:
        parse_rpc_response(decode_response_envelope(response.body).first_body_entry())
    except SoapFaultError as fault:
        return fault
    except ReproError:
        pass
    return HttpError(f"server returned HTTP {response.status}", status=response.status)


class _Call(NamedTuple):
    """What every attempt of one logical exchange shares."""

    envelope: Envelope
    headers: dict
    policy: CallPolicy


class ServiceProxy:
    """Callable stub for one remote service.

    ``proxy.call("echo", payload="x")`` or ``proxy.echo(payload="x")``
    issues one SOAP message per invocation — the paper's baseline
    communication model that SPI improves upon.  ``reuse_connections``
    picks a keep-alive pool over the paper's "No Optimization" fresh
    connection per call.
    """

    def __init__(self, config: ClientConfig) -> None:
        self.config = config
        self.transport = config.transport
        self.address = config.address
        self.namespace = config.namespace
        self.service_name = config.service_name
        self.path = config.path or f"/services/{config.service_name}"
        self.reuse_connections = config.reuse_connections
        self.extra_headers = tuple(config.extra_headers)
        self.tracer = config.tracer
        self.policy = config.policy if config.policy is not None else DEFAULT_POLICY
        # the proxy's metric home: the tracer's registry when one is
        # wired (so counters land next to the server's in /metrics),
        # else a private one; every instrument is bound here, none
        # looked up per call
        registry = getattr(config.tracer, "registry", None)
        self.metrics = metrics = registry if registry is not None else MetricsRegistry()
        self._retries = metrics.counter("client.retries")
        if self.tracer is not None:
            self._in_flight = metrics.gauge("client.calls.in_flight")
        if config.request_compression is not None:
            self._bytes_saved = metrics.counter("compress.bytes_saved")
        self.last_trace_id: str | None = None
        self._pool = ConnectionPool(config.transport) if config.reuse_connections else None
        host = self.address
        if isinstance(host, (tuple, list)):
            host = f"{host[0]}:{host[1]}"
        self._headers = {"Host": str(host)}  # after Content-Type and SOAPAction
        if config.accept_encoding:
            self._headers["Accept-Encoding"] = config.accept_encoding
        self.calls = 0
        self.connections_opened = 0
        self.retries = 0

    @classmethod
    def from_wsdl(cls, document: str | bytes, transport, address, **kwargs: Any) -> "ServiceProxy":
        """Build a proxy whose operations are checked against a WSDL;
        ``kwargs`` are further :class:`ClientConfig` fields."""
        service = parse_wsdl(document).service
        return cls(ClientConfig(
            transport, address, namespace=service.namespace,
            service_name=service.name, interface=service, **kwargs,
        ))

    # -- invocation --------------------------------------------------------------

    def call(self, operation: str, /, **params: Any) -> Any:
        """Invoke ``operation`` synchronously and return its result,
        under the proxy's default :class:`CallPolicy`."""
        return self.call_with_policy(operation, None, **params)

    def call_with_policy(
        self, operation: str, policy: CallPolicy | None, /, **params: Any
    ) -> Any:
        """Like :meth:`call` but under an explicit per-call policy
        (``None`` falls back to the proxy default).  Positional-only so
        operations may legitimately take a ``policy`` parameter."""
        if self.config.interface is not None:
            self.config.interface.check_call(operation, params)
        envelope = build_request_envelope(
            self.namespace, operation, params, headers=[h.copy() for h in self.extra_headers]
        )
        response_body = self.exchange(envelope, operation, policy=policy)
        self.calls += 1
        return parse_rpc_response(decode_response_envelope(response_body).first_body_entry()).value

    def exchange(
        self, envelope: Envelope, action: str = "", *, policy: CallPolicy | None = None
    ) -> bytes:
        """Send a request envelope; return the undecoded response body.

        Step 3, retry classification, around steps 1–2 per attempt.
        """
        policy = policy if policy is not None else self.policy
        headers = {"Content-Type": SOAP_CONTENT_TYPE,
                   SOAP_ACTION_HEADER: f'"{self.namespace}#{action}"', **self._headers}
        trace_id = None
        if self.tracer is not None:
            trace_id = self.last_trace_id = headers[TRACE_HTTP_HEADER] = new_trace_id()
            # mustUnderstand stays unset (=false): servers without the
            # obs subsystem must keep accepting the message untouched.
            envelope.add_header(
                Element(TRACE_HEADER_TAG, {TRACE_ID_ATTR: trace_id}, nsmap={"obs": OBS_NS})
            )
        if self.config.credentials is not None:
            from repro.soap.wssecurity import attach_security_header

            attach_security_header(envelope, self.config.credentials)
        call = _Call(envelope, headers, policy)
        if trace_id is None:
            return self._retry(call)
        self._in_flight.add(1)
        try:
            with self.tracer.span("client.call", trace_id, detail=action or "exchange"):
                return self._retry(call)
        finally:
            self._in_flight.add(-1)

    def _retry(self, call: _Call) -> bytes:
        state = RetryState()
        try:
            return execute_with_policy(
                functools.partial(self._attempt, call),
                call.policy,
                on_retry=lambda *_: self._retries.inc(),
                state=state,
            )
        finally:
            self.retries += state.retries

    def _attempt(self, call: _Call, deadline: Deadline) -> bytes:
        """Steps 1 and 2: re-base the deadline, then send the attempt."""
        request, io_budget = self._rebase(call, deadline)
        response = self._timed_send(request, io_budget)
        if response.status in (503, 504):
            # shed/timed-out server: surface the fault as its exception
            # so the retry step can classify it
            raise _fault_of(response)
        if response.status not in (200, 500):
            # a 500 carries a SOAP Fault the caller's parse surfaces
            response.raise_for_status()
        return response.body

    def _rebase(self, call: _Call, deadline: Deadline) -> tuple[HttpRequest, float | None]:
        """Step 1: this attempt's request, with its budget in the
        ``<res:Deadline>`` header, and its wire timeout budget."""
        policy = call.policy
        budget = policy.attempt_budget(deadline)
        if budget is not None:
            attach_deadline(call.envelope, budget)
        body = call.envelope.to_bytes()
        headers = Headers(call.headers)
        coding = self.config.request_compression
        if coding is not None and len(body) >= coding.min_size:
            coded = compress(body, coding.encodings[0], level=coding.level)
            if len(coded) < len(body):
                self._bytes_saved.inc(len(body) - len(coded))
                body = coded
                headers.set("Content-Encoding", coding.encodings[0])
        # The wire timeout is armed only by a hard whole-call deadline:
        # ``timeout`` alone is a soft budget the *server* enforces (and
        # may legitimately over-run to finish an in-flight entry), so it
        # must not cut the connection from the client side.
        io_budget = budget if policy.deadline is not None else None
        return HttpRequest("POST", self.path, headers, body), io_budget

    def _timed_send(self, request: HttpRequest, budget):
        """Step 2: send ``request`` with channel I/O bounded to ``budget``.

        A pooled connection that was kept alive may have died idle: the
        send is retried once on another.
        """
        for retry in (0, 1):
            if self._pool is None:
                self.connections_opened += 1
                connection = HttpConnection(self.transport, self.address)
            else:
                connection = self._pool.acquire(self.address)
            was_warm = connection.exchanges > 0
            connection.set_io_timeout(wire_timeout(budget))
            try:
                response = connection.request(request)
                break
            except (HttpError, TransportError):
                connection.close()
                if retry or not was_warm:
                    raise
        if self._pool is None:
            connection.close()
        else:
            connection.set_io_timeout(None)
            self._pool.release(self.address, connection)
        return response

    def fetch_wsdl(self) -> str:
        """GET this service's generated WSDL from the server."""
        request = HttpRequest("GET", f"{self.path}?wsdl", Headers({"Host": self._headers["Host"]}))
        with HttpConnection(self.transport, self.address) as connection:
            response = connection.request(request)
        response.raise_for_status()
        return response.body.decode("utf-8")

    def close(self) -> None:
        """Release pooled connections (no-op for fresh-connection mode)."""
        if self._pool is not None:
            self._pool.close()

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)

        def method(**params: Any) -> Any:
            return self.call(name, **params)

        method.__name__ = name
        return method
