"""Dynamic service proxy — the classic one-call-one-message client.

Every client entry point (``call``, the invokers, the pack path) goes
through :meth:`ServiceProxy.exchange`, which runs PROTOCOL.md §10's
client steps in order:

1. **cache** — a stored fault-free body answers the call outright;
2. **limiter** — each attempt takes an AIMD slot or is gated locally;
3. **deadline** — each attempt re-bases the ``<res:Deadline>`` header
   and its wire timeout on the whole-call budget left;
4. **attempt** — one wire send, raced by at most one hedge once it
   outlives the operation's own latency quantile in the client rollup;
5. **retry classification** — a retryable failure goes round 2–4 again
   under the :class:`CallPolicy`, while budget remains.

Construct through :class:`~repro.client.config.ClientConfig` +
:func:`~repro.client.config.build_proxy`.
"""

from __future__ import annotations

import functools
import queue
import threading
import time
from typing import Any, NamedTuple

from repro.client.cache import is_fault_free, response_cache_key
from repro.client.config import ClientConfig
from repro.errors import (
    FAULTCODE_SERVER_BUSY, HttpError, ReproError, SoapFaultError, TransportError,
    fault_class_of, fault_class_of_status,
)
from repro.http.compression import compress
from repro.http.connection import ConnectionPool, HttpConnection
from repro.http.message import Headers, HttpRequest
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    OBS_NS, TRACE_HEADER_TAG, TRACE_HTTP_HEADER, TRACE_ID_ATTR, new_trace_id,
)
from repro.resilience.deadline import attach_deadline, wire_timeout
from repro.resilience.hedge import HedgeBudget, HedgePolicy, hedge_trigger
from repro.resilience.limiter import OUTCOME_ERROR, OUTCOME_OVERLOAD, OUTCOME_SUCCESS
from repro.resilience.policy import (
    DEFAULT_POLICY, CallPolicy, Deadline, RetryState, execute_with_policy,
)
from repro.soap.constants import SOAP_ACTION_HEADER, SOAP_CONTENT_TYPE
from repro.soap.deserializer import parse_response_document
from repro.soap.envelope import Envelope
from repro.soap.serializer import build_request_envelope
from repro.wsdl.parser import parse_wsdl
from repro.xmlcore.tree import Element

#: Client-side rollups are keyed under this service prefix so a shared
#: registry (one tracer for client and server) never conflates the
#: client's view of an operation with the server's own per-target row.
CLIENT_ROLLUP_PREFIX = "client:"


def _fault_class_of(error: BaseException) -> str | None:
    """The rollup fault class for one failed attempt."""
    if isinstance(error, SoapFaultError):
        return fault_class_of(error.faultcode)
    if isinstance(error, HttpError):
        return fault_class_of_status(error.status)
    if isinstance(error, TransportError):
        return "retryable"
    return "fatal"


def _fault_of(response) -> Exception:
    """The SoapFaultError carried by a 503/504 body, or an HttpError when
    the body is not a parseable fault envelope."""
    try:
        parse_response_document(response.body)
    except SoapFaultError as fault:
        return fault
    except (ReproError, StopIteration):
        pass
    return HttpError(f"server returned HTTP {response.status}", status=response.status)


class _Call(NamedTuple):
    """What every attempt of one logical exchange shares."""

    envelope: Envelope
    headers: dict
    policy: CallPolicy
    rollup: Any
    hedge: HedgePolicy | None


class _Attempt:
    """One racing wire attempt: the connection it is on, and whether the
    race is over for it (an abandoned attempt sends nothing more and its
    latency is not observed)."""

    connection: HttpConnection | None = None
    abandoned = False

    def abandon(self) -> None:
        self.abandoned = True
        if self.connection is not None:
            self.connection.close()


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
        self.extra_headers = list(config.extra_headers or ())
        self.tracer = config.tracer
        self.policy = config.policy if config.policy is not None else DEFAULT_POLICY
        self.hedge = config.hedge
        self.limiter = config.limiter
        self.response_cache = config.response_cache
        # the proxy's metric home: the tracer's registry when one is
        # wired (so counters land next to the server's in /metrics),
        # else a private registry that still feeds the hedge rollups
        registry = getattr(config.tracer, "registry", None)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.last_trace_id: str | None = None
        self._pool = ConnectionPool(config.transport) if config.reuse_connections else None
        self._hedge_budget = config.hedge and HedgeBudget.for_policy(config.hedge)
        host = self.address
        if isinstance(host, (tuple, list)):
            host = f"{host[0]}:{host[1]}"
        self._headers = {"Host": str(host)}  # after Content-Type and SOAPAction
        if config.accept_encoding:
            self._headers["Accept-Encoding"] = config.accept_encoding
        if self.limiter is not None:
            self._limiter_gauge = self.metrics.gauge("client.limiter.limit")
            self._limiter_gauge.set(self.limiter.limit)
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
        cache = self.response_cache
        cache_key = None
        if cache is not None and cache.policy.is_cacheable(operation):
            cache_key = response_cache_key(self.namespace, operation, params)
        envelope = build_request_envelope(
            self.namespace, operation, params, headers=[h.copy() for h in self.extra_headers]
        )
        response_body = self.exchange(envelope, operation, policy=policy, cache_key=cache_key)
        self.calls += 1
        # Pull-parse the response: skip straight to the body entry
        # without materializing headers this client never reads.
        return parse_response_document(response_body).value

    def exchange(
        self, envelope: Envelope, action: str = "", *, policy: CallPolicy | None = None,
        cache_key: tuple | None = None, hedgeable: bool = True,
    ) -> bytes:
        """Send a request envelope; return the undecoded response body.

        Step 1, the cache: under ``cache_key`` (``None`` bypasses it) a
        stored body answers without taking a limiter slot, opening a
        connection or counting a retry; concurrent misses fetch once and
        only fault-free bodies are stored.  ``hedgeable=False`` disarms
        hedging for envelopes unsafe to send twice (packs with a cast).
        """
        cache = self.response_cache
        if cache is None or cache_key is None:
            return self._exchange_uncached(envelope, action, policy, hedgeable)
        body, _ = cache.get_or_fetch(
            cache_key,
            lambda: self._exchange_uncached(envelope, action, policy, hedgeable),
            validate=is_fault_free,
        )
        return body

    def _exchange_uncached(
        self, envelope: Envelope, action: str, policy: CallPolicy | None, hedgeable: bool
    ) -> bytes:
        """Step 5, retry classification, around steps 2–4 per attempt."""
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
        rollup = self.metrics.rollup(CLIENT_ROLLUP_PREFIX + self.namespace, action or "exchange")
        call = _Call(envelope, headers, policy, rollup, self.hedge if hedgeable else None)
        if trace_id is None:
            return self._retry(call)
        in_flight = self.tracer.registry.gauge("client.calls.in_flight")
        in_flight.add(1)
        try:
            with self.tracer.span("client.call", trace_id, detail=action or "exchange"):
                return self._retry(call)
        finally:
            in_flight.add(-1)

    def _retry(self, call: _Call) -> bytes:
        state = RetryState()
        try:
            return execute_with_policy(
                functools.partial(self._attempt, call),
                call.policy,
                on_retry=lambda *_: self.metrics.counter("client.retries").inc(),
                state=state,
            )
        finally:
            self.retries += state.retries

    def _attempt(self, call: _Call, deadline: Deadline) -> bytes:
        """Step 2, the limiter: every attempt, retries included, takes an
        AIMD slot first or is gated with a local ``Server.Busy``."""
        limiter = self.limiter
        if limiter is None:
            return self._send(call, deadline)
        if not limiter.try_acquire():
            self.metrics.counter("client.limiter.gated").inc()
            self._limiter_gauge.set(limiter.limit)
            # a fast local fault wearing the server's own shed faultcode,
            # so the retry step backs off as it would from the server's
            raise SoapFaultError(FAULTCODE_SERVER_BUSY, "client: adaptive concurrency "
                                 "limiter gated the call (local shed before the wire)")
        outcome = OUTCOME_SUCCESS
        try:
            return self._send(call, deadline)
        except BaseException as exc:
            outcome = OUTCOME_OVERLOAD if _fault_class_of(exc) == "shed" else OUTCOME_ERROR
            raise
        finally:
            limiter.release(outcome)
            self._limiter_gauge.set(limiter.limit)

    def _send(self, call: _Call, deadline: Deadline) -> bytes:
        """Steps 3 and 4: re-base the deadline, then send the attempt —
        raced by one hedge once it outlives the rollup quantile."""
        request, budget, io_budget = self._rebase(call, deadline)
        trigger = None
        if call.hedge is not None:
            self._hedge_budget.note_call()
            trigger = hedge_trigger(call.hedge, call.rollup, budget)
        if trigger is None:
            return self._measured_send(request, io_budget, call.rollup, _Attempt())
        return self._race(call, request, io_budget, trigger, deadline)

    def _rebase(self, call: _Call, deadline: Deadline) -> tuple[HttpRequest, Any, Any]:
        """Step 3: this attempt's budget, its request with that budget in
        the ``<res:Deadline>`` header, and its wire timeout budget."""
        policy = call.policy
        budget = policy.attempt_budget(deadline)
        if budget is not None and policy.propagate_deadline:
            attach_deadline(call.envelope, budget)
        body = call.envelope.to_bytes()
        headers = Headers(call.headers)
        coding = self.config.request_compression
        if coding is not None and len(body) >= coding.min_size:
            coded = compress(body, coding.encodings[0], level=coding.level)
            if len(coded) < len(body):
                self.metrics.counter("compress.bytes_saved").inc(len(body) - len(coded))
                body = coded
                headers.set("Content-Encoding", coding.encodings[0])
        # The wire timeout is armed only by a hard whole-call deadline:
        # ``timeout`` alone is a soft budget the *server* enforces (and
        # may legitimately over-run to finish an in-flight entry), so it
        # must not cut the connection from the client side.
        io_budget = budget if policy.deadline is not None else None
        return HttpRequest("POST", self.path, headers, body), budget, io_budget

    # -- step 4: the wire attempt and the hedge race ----------------------------

    def _race(
        self, call: _Call, request: HttpRequest, io_budget, trigger: float, deadline: Deadline
    ) -> bytes:
        """Race the primary attempt against one speculative hedge.

        Each attempt runs in its own thread and posts ``(index, body or
        exception)`` to one queue.  If nothing arrives within ``trigger``
        seconds and the hedge budget grants a token, a second attempt
        with a freshly re-based deadline joins.  The first success wins;
        every other attempt is abandoned.
        """
        outcomes: queue.SimpleQueue = queue.SimpleQueue()
        attempts = [self._launch(outcomes, 0, request, io_budget, call.rollup)]
        try:
            first = outcomes.get(timeout=trigger)
        except queue.Empty:
            first = None
            if self._hedge_budget.try_spend():
                self.metrics.counter("client.hedges").inc()
                hedge_request, _, hedge_io = self._rebase(call, deadline)
                attempts.append(self._launch(outcomes, 1, hedge_request, hedge_io, call.rollup))
        failures: dict[int, BaseException] = {}
        winner = None
        for _ in attempts:
            index, outcome = first if first is not None else outcomes.get()
            first = None
            if not isinstance(outcome, BaseException):
                winner = index
                break
            failures[index] = outcome
        for index, attempt in enumerate(attempts):
            if index != winner:
                attempt.abandon()
        if winner is None:
            raise failures[0]
        if winner == 1:
            self.metrics.counter("client.hedge_wins").inc()
        return outcome

    def _launch(self, outcomes, index: int, request: HttpRequest, io_budget, rollup) -> _Attempt:
        """Start one race attempt in its own thread."""
        attempt = _Attempt()

        def run() -> None:
            try:
                outcome = self._measured_send(request, io_budget, rollup, attempt)
            except BaseException as exc:
                outcome = exc
            outcomes.put((index, outcome))

        threading.Thread(target=run, name=f"hedge-{index}", daemon=True).start()
        return attempt

    def _measured_send(self, request: HttpRequest, budget, rollup, attempt: _Attempt) -> bytes:
        """One wire attempt, observed into the client rollup — unless
        the hedge race abandoned it: a loser's latency is an artifact of
        abandonment, not the server, and must not poison the trigger."""
        started = time.perf_counter()
        fault_class = None
        try:
            response = self._timed_send(request, budget, attempt)
            if response.status in (503, 504):
                # shed/timed-out server: surface the fault as its
                # exception so the retry step can classify it
                raise _fault_of(response)
            if response.status == 500:
                # 500 carries a SOAP Fault the caller's parse surfaces
                fault_class = "fatal"
            elif response.status != 200:
                response.raise_for_status()
            return response.body
        except BaseException as exc:
            fault_class = _fault_class_of(exc)
            raise
        finally:
            if not attempt.abandoned:
                rollup.observe(time.perf_counter() - started, fault_class)

    def _timed_send(self, request: HttpRequest, budget, attempt: _Attempt):
        """Send ``request`` with channel I/O bounded to ``budget``.

        A pooled connection that was kept alive may have died idle: the
        send is retried once on another.  ``attempt`` exposes the
        connection so a hedge race can close it; an abandoned attempt
        sends nothing more, so a loser never re-sends.
        """
        for retry in (0, 1):
            if attempt.abandoned:
                raise TransportError("attempt abandoned by the hedge race")
            if self._pool is None:
                self.connections_opened += 1
                connection = HttpConnection(self.transport, self.address)
            else:
                connection = self._pool.acquire(self.address)
            attempt.connection = connection
            was_warm = connection.exchanges > 0
            connection.set_io_timeout(wire_timeout(budget))
            try:
                response = connection.request(request)
                break
            except (HttpError, TransportError):
                connection.close()
                if retry or not was_warm:
                    raise
        # detach before the check: abandon() then never closes a
        # connection this attempt hands back to the pool
        attempt.connection = None
        if self._pool is None or attempt.abandoned:
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
