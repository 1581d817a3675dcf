"""Dynamic service proxy — the classic one-call-one-message client.

PR-9 made this the *adaptive* client: every exchange feeds a
per-(service, operation) rollup, and three resilience mechanisms read
it back:

* **hedged requests** — once the first attempt outlives the operation's
  own latency quantile, a speculative second attempt races it
  (first response wins, the loser's connection is abandoned);
* **AIMD concurrency limiting** — an :class:`AdaptiveLimiter` gates
  calls locally with a fast retryable fault when the window is full,
  halving the window on ``Server.Busy`` sheds and growing it additively
  on success;
* **deadline-rebased I/O timeouts** — each attempt's channel timeout is
  the remaining whole-call budget, so a hung server cannot consume
  later attempts' time.

Construction goes through :class:`~repro.client.config.ClientConfig` +
:func:`~repro.client.config.build_proxy`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.client.cache import response_cache_key
from repro.client.config import ClientConfig
from repro.client.futures import CompletionWatcher, InvocationFuture
from repro.errors import (
    FAULTCODE_SERVER_BUSY,
    FAULTCODE_TABLE,
    HttpError,
    InvocationError,
    ReproError,
    SoapFaultError,
    TransportError,
    fault_class_of,
)
from repro.http.compression import compress
from repro.http.connection import ConnectionPool, HttpConnection
from repro.http.message import Headers, HttpRequest
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    OBS_NS,
    TRACE_HEADER_TAG,
    TRACE_HTTP_HEADER,
    TRACE_ID_ATTR,
    new_trace_id,
)
from repro.resilience.deadline import attach_deadline
from repro.resilience.hedge import HedgeBudget, HedgePolicy, hedge_trigger
from repro.resilience.limiter import (
    OUTCOME_ERROR,
    OUTCOME_OVERLOAD,
    OUTCOME_SUCCESS,
)
from repro.resilience.policy import (
    CallPolicy,
    DEFAULT_POLICY,
    Deadline,
    RetryState,
    execute_with_policy,
)
from repro.soap.constants import FAULT_TAG, SOAP_ACTION_HEADER, SOAP_CONTENT_TYPE
from repro.soap.deserializer import parse_response_document
from repro.soap.envelope import Envelope
from repro.soap.fault import SoapFault
from repro.soap.serializer import build_request_envelope
from repro.wsdl.parser import parse_wsdl
from repro.xmlcore.tree import Element

#: Client-side rollups are keyed under this service prefix so a shared
#: registry (one tracer for client and server) never conflates the
#: client's view of an operation with the server's own per-target row.
CLIENT_ROLLUP_PREFIX = "client:"

#: Wire-level grace on top of the logical attempt budget.  The server
#: enforces the propagated deadline itself and answers AT it (rendering
#: per-entry timeout faults), so the socket timeout must outlive the
#: budget slightly — a wire timeout equal to the budget would cut the
#: connection just as the server's deadline fault is being written.
IO_GRACE_FRACTION = 0.25
IO_GRACE_FLOOR_S = 0.05


def _wire_timeout(budget: float | None) -> float | None:
    """The channel I/O timeout for one attempt with ``budget`` seconds
    of logical deadline left: the budget plus a grace margin."""
    if budget is None:
        return None
    return budget + max(budget * IO_GRACE_FRACTION, IO_GRACE_FLOOR_S)


def _body_is_cacheable(body: bytes) -> bool:
    """Conservative fault screen for the response cache.

    Any body that might carry a SOAP Fault — a 500 single-entry fault,
    or a per-entry fault inside a packed response — must not be stored
    as a known-good answer.  Probing for the substring is deliberately
    over-broad: a payload that merely *mentions* "Fault" costs one
    skipped insertion, never a wrong cache hit.
    """
    return b"Fault" not in body


# a bare HTTP status (no fault body survived) classifies like the
# faultcode the endpoint would have sent it for
_STATUS_FAULT_CLASSES = {status: cls for cls, status in FAULTCODE_TABLE.values()}


def _fault_class_of(error: BaseException) -> str | None:
    """The rollup fault class for one failed attempt."""
    if isinstance(error, SoapFaultError):
        return fault_class_of(error.faultcode)
    if isinstance(error, HttpError):
        return _STATUS_FAULT_CLASSES.get(error.status, "fatal")
    if isinstance(error, TransportError):
        return "retryable"
    return "fatal"


class ServiceProxy:
    """Callable stub for one remote service.

    ``proxy.call("echo", payload="x")`` or ``proxy.echo(payload="x")``
    issues one SOAP message per invocation — the paper's baseline
    communication model that SPI improves upon.

    Connection policy:

    * ``reuse_connections=False`` (default) opens a fresh connection per
      call, matching the paper's "No Optimization" client and its
      M-TCP-connections cost model;
    * ``reuse_connections=True`` goes through a keep-alive pool.

    Construct with ``ServiceProxy(ClientConfig(...))`` (or the
    :func:`~repro.client.config.build_proxy` facade).
    """

    def __init__(self, config: ClientConfig) -> None:
        self.config = config
        self.transport = config.transport
        self.address = config.address
        self.namespace = config.namespace
        self.service_name = config.service_name
        self.path = config.path or f"/services/{config.service_name}"
        self.reuse_connections = config.reuse_connections
        self.interface = config.interface
        self.extra_headers = list(config.extra_headers or ())
        self.credentials = config.credentials
        self.tracer = config.tracer
        self.policy = config.policy if config.policy is not None else DEFAULT_POLICY
        self.hedge = config.hedge
        self.limiter = config.limiter
        self.response_cache = config.response_cache
        self.accept_encoding = config.accept_encoding
        self.request_compression = config.request_compression
        # the proxy's metric home: the tracer's registry when one is
        # wired (so counters land next to the server's in /metrics),
        # else a private registry that still feeds the hedge rollups
        self.metrics = (
            config.tracer.registry
            if config.tracer is not None and config.tracer.registry is not None
            else MetricsRegistry()
        )
        self.last_trace_id: str | None = None
        self._pool = ConnectionPool(config.transport) if config.reuse_connections else None
        self._hedge_lock = threading.Lock()
        self._hedge_budget: HedgeBudget | None = (
            HedgeBudget.for_policy(config.hedge) if config.hedge is not None else None
        )
        self._limiter_gauge = (
            self.metrics.gauge("client.limiter.limit")
            if config.limiter is not None
            else None
        )
        if self.limiter is not None:
            self._limiter_gauge.set(self.limiter.limit)
        self.calls = 0
        self.connections_opened = 0
        self.retries = 0

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_wsdl(
        cls,
        document: str | bytes,
        transport,
        address,
        **kwargs: Any,
    ) -> "ServiceProxy":
        """Build a proxy whose operations are checked against a WSDL.

        ``kwargs`` are :class:`ClientConfig` fields (``policy``,
        ``hedge``, ``reuse_connections``, ...).
        """
        service = parse_wsdl(document).service
        config = ClientConfig(
            transport=transport,
            address=address,
            namespace=service.namespace,
            service_name=service.name,
            interface=service,
            **kwargs,
        )
        return cls(config)

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
        self._check_interface(operation, params)
        cache = self.response_cache
        cache_key = None
        if cache is not None and cache.policy.is_cacheable(operation):
            cache_key = response_cache_key(self.namespace, operation, params)
        envelope = build_request_envelope(
            self.namespace, operation, params, headers=[h.copy() for h in self.extra_headers]
        )
        response_body = self.exchange_raw(
            envelope, operation, policy=policy, cache_key=cache_key
        )
        self.calls += 1
        # Pull-parse the response: skip straight to the body entry
        # without materializing headers this client never reads.
        return parse_response_document(response_body).value

    def exchange(
        self,
        envelope: Envelope,
        action: str = "",
        *,
        policy: CallPolicy | None = None,
        cache_key: tuple | None = None,
        hedgeable: bool = True,
    ) -> Envelope:
        """Send a raw request envelope, return the raw response envelope.

        This is the hook the SPI packed client shares: it builds its own
        Parallel_Method envelope and still reuses the proxy's HTTP path.
        ``cache_key``: callers that know their envelope's semantic
        identity (e.g. the pack assembler) pass it to join the
        response cache; ``None`` bypasses caching.
        ``hedgeable=False`` disarms hedging for envelopes that are not
        safe to send twice (a pack carrying one-way casts).
        """
        return Envelope.parse(
            self.exchange_raw(
                envelope, action, policy=policy, cache_key=cache_key,
                hedgeable=hedgeable,
            ),
            server=True,
        )

    def exchange_raw(
        self,
        envelope: Envelope,
        action: str = "",
        *,
        policy: CallPolicy | None = None,
        cache_key: tuple | None = None,
        hedgeable: bool = True,
    ) -> bytes:
        """Like :meth:`exchange` but returns the undecoded response body.

        When ``cache_key`` is given and the proxy has a response cache,
        the cache is consulted first (single-flight on concurrent
        misses) and fault-free response bodies are stored; the wire
        exchange below — retries included — runs only on a miss.

        All resilience behaviour lives here, so every client entry point
        (``call``, the invokers, the pack path) gets it uniformly:

        * the whole-call deadline is started and, when the policy says
          so, propagated as a ``<res:Deadline>`` SOAP header refreshed
          on every attempt;
        * each attempt's channel I/O timeout is rebased to the remaining
          whole-call budget (min of the per-attempt ``timeout`` and what
          the deadline has left);
        * the AIMD limiter gates the attempt before it touches the wire;
        * once the live rollup has enough samples, a slow first attempt
          is hedged with a speculative second (budget permitting);
        * 503/504 responses are decoded into their retryable
          :class:`~repro.errors.SoapFaultError` and — like transport
          drops — retried with backoff while budget remains.
        """
        cache = self.response_cache
        if cache is not None and cache_key is not None:
            body, _ = cache.get_or_fetch(
                cache_key,
                lambda: self._exchange_uncached(
                    envelope, action, policy, hedgeable=hedgeable
                ),
                validate=_body_is_cacheable,
            )
            return body
        return self._exchange_uncached(envelope, action, policy, hedgeable=hedgeable)

    def _exchange_uncached(
        self,
        envelope: Envelope,
        action: str,
        policy: CallPolicy | None,
        *,
        hedgeable: bool = True,
    ) -> bytes:
        policy = policy if policy is not None else self.policy
        hedge: HedgePolicy | None = None
        if hedgeable:
            hedge = policy.hedge_policy or self.hedge
        rollup = self.metrics.rollup(
            CLIENT_ROLLUP_PREFIX + self.namespace, action or "exchange"
        )
        header_fields = {
            "Content-Type": SOAP_CONTENT_TYPE,
            SOAP_ACTION_HEADER: f'"{self.namespace}#{action}"',
            "Host": self._host_header(),
        }
        if self.accept_encoding:
            header_fields["Accept-Encoding"] = self.accept_encoding
        trace_id = None
        if self.tracer is not None:
            trace_id = new_trace_id()
            self.last_trace_id = trace_id
            header_fields[TRACE_HTTP_HEADER] = trace_id
            # mustUnderstand stays unset (=false): servers without the
            # obs subsystem must keep accepting the message untouched.
            envelope.add_header(
                Element(TRACE_HEADER_TAG, {TRACE_ID_ATTR: trace_id}, nsmap={"obs": OBS_NS})
            )
        if self.credentials is not None:
            from repro.soap.wssecurity import attach_security_header

            attach_security_header(envelope, self.credentials)

        def attempt(deadline: Deadline) -> bytes:
            limiter = self.limiter
            if limiter is not None and not limiter.try_acquire():
                self.metrics.counter("client.limiter.gated").inc()
                self._limiter_gauge.set(limiter.limit)
                # a fast local fault wearing the server's own shed
                # faultcode, so the normal retry machinery backs off
                raise SoapFaultError(
                    FAULTCODE_SERVER_BUSY,
                    "client: adaptive concurrency limiter gated the call "
                    "(local shed before the wire)",
                )
            outcome = OUTCOME_ERROR
            try:
                body = self._attempt_exchange(
                    envelope, header_fields, policy, deadline, hedge, rollup
                )
                outcome = OUTCOME_SUCCESS
                return body
            except BaseException as exc:
                if _fault_class_of(exc) == "shed":
                    outcome = OUTCOME_OVERLOAD
                raise
            finally:
                if limiter is not None:
                    limiter.release(outcome)
                    self._limiter_gauge.set(limiter.limit)

        state = RetryState()

        def run() -> bytes:
            try:
                return execute_with_policy(
                    attempt, policy, on_retry=self._on_retry, state=state
                )
            finally:
                self.retries += state.retries

        if trace_id is not None:
            in_flight = self.tracer.registry.gauge("client.calls.in_flight")
            in_flight.add(1)
            try:
                with self.tracer.span(
                    "client.call", trace_id, detail=action or "exchange"
                ):
                    return run()
            finally:
                in_flight.add(-1)
        return run()

    # -- one physical attempt ------------------------------------------------

    def _attempt_exchange(
        self,
        envelope: Envelope,
        header_fields: dict,
        policy: CallPolicy,
        deadline: Deadline,
        hedge: HedgePolicy | None,
        rollup,
    ) -> bytes:
        budget = policy.attempt_budget(deadline)
        # The wire timeout is armed only by a hard whole-call deadline:
        # ``timeout`` alone is a soft budget the *server* enforces (and
        # may legitimately over-run to finish an in-flight entry), so it
        # must not cut the connection from the client side.
        io_budget = budget if policy.deadline is not None else None
        request = self._build_request(envelope, header_fields, policy, budget)
        trigger = None
        if hedge is not None:
            self._hedge_budget_for(hedge).note_call()
            trigger = hedge_trigger(hedge, rollup, budget)
        if trigger is None:
            return self._measured_send(request, io_budget, rollup)
        return self._hedged_send(
            request, io_budget, trigger, policy, envelope, header_fields,
            deadline, rollup,
        )

    def _build_request(
        self,
        envelope: Envelope,
        header_fields: dict,
        policy: CallPolicy,
        budget: float | None,
    ) -> HttpRequest:
        if budget is not None and policy.propagate_deadline:
            # refreshed per attempt: each retry (and each hedge)
            # re-tells the server how much budget is actually left
            attach_deadline(envelope, budget)
        body = envelope.to_bytes()
        request_headers = Headers(header_fields)
        coding = self.request_compression
        if coding is not None and len(body) >= coding.min_size:
            coded = compress(body, coding.encodings[0], level=coding.level)
            if len(coded) < len(body):
                self.metrics.counter("compress.bytes_saved").inc(
                    len(body) - len(coded)
                )
                body = coded
                request_headers.set("Content-Encoding", coding.encodings[0])
        return HttpRequest("POST", self.path, request_headers, body)

    def _measured_send(
        self,
        request: HttpRequest,
        budget: float | None,
        rollup,
        *,
        register_cancel: Callable[[Callable[[], None]], None] | None = None,
        abandoned: Callable[[], bool] | None = None,
    ) -> bytes:
        """One wire attempt, observed into the client rollup.

        ``abandoned``: hedge losers report True once the race is over —
        their latency (an artifact of abandonment, not the server) is
        not signal and must not poison the hedge trigger.
        """
        started = time.perf_counter()

        def observe(fault_class: str | None) -> None:
            if abandoned is not None and abandoned():
                return
            rollup.observe(time.perf_counter() - started, fault_class)

        try:
            response = self._timed_send(
                request, budget, register_cancel=register_cancel
            )
        except BaseException as exc:
            observe(_fault_class_of(exc))
            raise
        if response.status in (503, 504):
            # shed/timed-out server: surface the fault as its
            # exception so the retry loop can classify it
            error = self._decode_fault(response)
            observe(_fault_class_of(error))
            raise error
        if response.status not in (200, 500):
            # 500 carries a SOAP Fault the caller's parse surfaces
            # properly; anything else is an HTTP-level failure.
            observe("fatal")
            response.raise_for_status()
        observe("fatal" if response.status == 500 else None)
        return response.body

    def _timed_send(
        self,
        request: HttpRequest,
        budget: float | None,
        *,
        register_cancel: Callable[[Callable[[], None]], None] | None = None,
    ):
        """Send ``request`` with channel I/O bounded to ``budget``.

        ``register_cancel`` hands the caller a handle that abandons the
        in-flight exchange (closes its connection) — the hedge race uses
        it to cut losers loose.
        """
        if self._pool is None:
            self.connections_opened += 1
            connection = HttpConnection(self.transport, self.address)
            if register_cancel is not None:
                register_cancel(connection.close)
            with connection:
                connection.set_io_timeout(_wire_timeout(budget))
                return connection.request(request)
        # pooled: retry once if a kept-alive connection turns out dead
        for retry in (0, 1):
            connection = self._pool.acquire(self.address)
            if register_cancel is not None:
                register_cancel(connection.close)
            was_warm = connection.exchanges > 0
            connection.set_io_timeout(_wire_timeout(budget))
            try:
                response = connection.request(request)
            except (HttpError, TransportError):
                connection.close()
                if retry or not was_warm:
                    raise
                continue
            connection.set_io_timeout(None)
            self._pool.release(self.address, connection)
            return response
        raise HttpError("unreachable")  # pragma: no cover

    def _hedged_send(
        self,
        request: HttpRequest,
        io_budget: float | None,
        trigger: float,
        policy: CallPolicy,
        envelope: Envelope,
        header_fields: dict,
        deadline: Deadline,
        rollup,
    ) -> bytes:
        """Race the primary attempt against one speculative hedge.

        The primary runs in a worker thread; if it has not completed
        within ``trigger`` seconds (the rollup quantile) and the hedge
        budget grants a token, a second attempt with a freshly rebased
        deadline joins the race.  First success wins; the loser's
        connection is closed and its late result discarded.
        """
        watcher = CompletionWatcher()
        race_over = threading.Event()
        attempts: list[InvocationFuture] = []
        cancels: list[Callable[[], None]] = []

        def launch(tag: str, req: HttpRequest, attempt_budget: float | None):
            index = len(attempts)
            future = InvocationFuture(tag)
            cancels.append(lambda: None)

            def register_cancel(cancel: Callable[[], None]) -> None:
                cancels[index] = cancel

            def runner() -> None:
                try:
                    future.resolve(
                        self._measured_send(
                            req,
                            attempt_budget,
                            rollup,
                            register_cancel=register_cancel,
                            abandoned=race_over.is_set,
                        )
                    )
                except BaseException as exc:
                    future.fail(exc)

            attempts.append(future)
            watcher.watch(future)
            threading.Thread(
                target=runner, name=f"hedge-{tag}", daemon=True
            ).start()
            return future

        primary = launch("primary", request, io_budget)
        first = watcher.next_completed(trigger)
        if first is None and self._hedge_budget_for(None).try_spend():
            self.metrics.counter("client.hedges").inc()
            # the hedge's deadline header and I/O timeout are rebased to
            # what is left NOW, not what the primary started with
            hedge_budget = policy.attempt_budget(deadline)
            hedge_request = self._build_request(
                envelope, header_fields, policy, hedge_budget
            )
            launch("hedge", hedge_request,
                   hedge_budget if policy.deadline is not None else None)

        winner: InvocationFuture | None = None
        pending = len(attempts)
        future = first
        while True:
            if future is None:
                future = watcher.next_completed(None)
                continue
            pending -= 1
            if future.exception(timeout=0) is None:
                winner = future
                break
            if pending == 0:
                break
            future = watcher.next_completed(None)
        race_over.set()
        for index, attempt_future in enumerate(attempts):
            if attempt_future is not winner:
                try:
                    cancels[index]()
                except Exception:
                    pass  # abandoning a loser is best-effort
        if winner is None:
            raise primary.exception(timeout=0)
        if len(attempts) > 1 and winner is attempts[1]:
            self.metrics.counter("client.hedge_wins").inc()
        return winner.result(timeout=0)

    def _hedge_budget_for(self, hedge: HedgePolicy | None) -> HedgeBudget:
        """The per-proxy hedge token bucket, created on first armed use
        (rates come from the first hedge policy seen)."""
        with self._hedge_lock:
            bucket = self._hedge_budget
            if bucket is None:
                bucket = self._hedge_budget = (
                    HedgeBudget.for_policy(hedge) if hedge is not None else HedgeBudget()
                )
        return bucket

    def _on_retry(self, retry_index: int, error: BaseException, delay: float) -> None:
        self.metrics.counter("client.retries").inc()

    def _decode_fault(self, response) -> Exception:
        """The SoapFaultError carried by a 503/504 body (or an HttpError
        when the body is not a parseable fault envelope)."""
        try:
            envelope = Envelope.parse(response.body, server=True)
            entries = envelope.body_entries
            if entries and entries[0].tag == FAULT_TAG:
                return SoapFault.from_element(entries[0]).to_exception()
        except ReproError:
            pass
        return HttpError(
            f"server returned HTTP {response.status}", status=response.status
        )

    def fetch_wsdl(self) -> str:
        """GET this service's generated WSDL from the server."""
        request = HttpRequest("GET", f"{self.path}?wsdl", Headers({"Host": self._host_header()}))
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

    # -- internals -----------------------------------------------------------------

    def _check_interface(self, operation: str, params: dict[str, Any]) -> None:
        if self.interface is None:
            return
        try:
            op = self.interface.operation(operation)
        except Exception:
            raise InvocationError(
                f"'{operation}' is not an operation of {self.service_name} "
                f"(WSDL lists: {', '.join(self.interface.operation_names())})"
            ) from None
        expected = set(op.parameter_names())
        got = set(params)
        if expected != got:
            raise InvocationError(
                f"{self.service_name}.{operation} expects parameters "
                f"{sorted(expected)}, got {sorted(got)}"
            )

    def _host_header(self) -> str:
        if isinstance(self.address, (tuple, list)):
            return f"{self.address[0]}:{self.address[1]}"
        return str(self.address)
