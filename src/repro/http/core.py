"""Everything the two HTTP server backends share: the engine.

* :class:`ConnectionState` — one connection without its socket: bytes
  in → parsed requests (plus, at most once, a framing error), ordered
  :class:`ResponseSlot` s → bytes out, and the read-idle / write-stall /
  handler deadlines as pure functions of ``now``.
* :class:`HttpServerCore` — the request lifecycle (admin surface →
  trace id and ``http.parse`` span → the app inside ``server.handle`` →
  500 on an app exception → content coding → keep-alive decision → wire
  encoding → ``http.send`` span → trace completion), the
  ``http.*`` instruments, the admin routes and the canned
  accept-overload 503.

The backends are I/O drivers over these two and differ only in where
bytes come from and go to, and on which thread the app runs:

* :class:`~repro.http.server.HttpServer` — one blocking handler thread
  per connection (the paper's "thread pool created in the transport
  layer");
* :class:`~repro.http.evented.EventedHttpServer` — one ``selectors``
  event loop owning accept/read/write for every connection, with
  application work dispatched to a bounded stage (SEDA lineage).
"""

from __future__ import annotations

import collections
import contextlib
import json
import threading
import time
from typing import Callable, Iterator

from repro.errors import HttpError
from repro.http.compression import CompressionPolicy, choose_encoding, compress
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.parser import MessageParser
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import render_timeline
from repro.obs.trace import (
    TRACE_HTTP_HEADER,
    Observability,
    activate,
    current_trace_id,
    deactivate,
    new_trace_id,
)
from repro.transport.base import Address, Transport

App = Callable[[HttpRequest], HttpResponse]

#: How a driver takes a finished response: ``deliver(payload, close)``
#: with its wire bytes and whether the connection closes after them.
#: The threaded driver writes them out; the evented driver fills the
#: request's :class:`ResponseSlot` and wakes its loop.
Deliver = Callable[[bytes, bool], None]

ADMIN_PATHS = ("/metrics", "/healthz", "/traces")

#: ``GET /trace/<id>`` serves one retained trace's span tree
#: (``?format=text``: its waterfall).
TRACE_PATH_PREFIX = "/trace/"

#: Per-connection cap on dispatched-but-unanswered pipelined requests;
#: at the cap a driver stops reading until responses drain.
MAX_PIPELINED = 16


class ResponseSlot:
    """One in-order response position on a connection.

    Requests are dispatched as they parse (pipelining), but HTTP/1.1
    responses must come back in request order: a worker fills its slot
    whenever it finishes, the connection's owner writes only the
    contiguous done prefix.  ``done`` is set last (GIL-ordered) so the
    owner never reads a half-filled slot.
    """

    __slots__ = ("payload", "close_after", "done", "dispatched_at")

    def __init__(self, dispatched_at: float = 0.0) -> None:
        self.payload = b""
        self.close_after = False
        self.done = False
        #: monotonic time the request was dispatched — the handler
        #: deadline measures from here until ``done``
        self.dispatched_at = dispatched_at

    def fill(self, payload: bytes, *, close_after: bool) -> None:
        """Park the coded response (any thread); ``done`` flips last."""
        self.payload = payload
        self.close_after = close_after
        self.done = True


class ConnectionState:
    """One server-side connection, minus the socket.

    Owned by exactly one thread (the event loop, or the connection's
    own thread); only :meth:`ResponseSlot.fill` may be called from
    elsewhere.  Pure with respect to I/O and time: bytes are handed in
    and out, and every method that needs a clock takes ``now``
    (monotonic seconds).
    """

    __slots__ = (
        "parser",
        "outbuf",
        "slots",
        "idle_timeout",
        "write_timeout",
        "handler_timeout",
        "last_activity",
        "write_started",
        "parse_started",
        "reading_shut",
        "close_after_write",
    )

    def __init__(
        self,
        *,
        now: float,
        idle_timeout: float | None = None,
        write_timeout: float | None = None,
        handler_timeout: float | None = None,
    ) -> None:
        self.parser = MessageParser()
        self.outbuf = bytearray()
        #: dispatched-but-unwritten responses, oldest first
        self.slots: collections.deque[ResponseSlot] = collections.deque()
        self.idle_timeout = idle_timeout
        self.write_timeout = write_timeout
        self.handler_timeout = handler_timeout
        self.last_activity = now
        #: monotonic time the current outbuf started waiting, or None
        self.write_started: float | None = None
        #: when the bytes of the currently-parsing request started
        #: arriving — the start of that request's ``http.parse`` span
        self.parse_started: float | None = None
        self.reading_shut = False
        self.close_after_write = False

    # -- bytes in -------------------------------------------------------

    def receive(
        self, data: bytes, now: float
    ) -> tuple[float, list[HttpRequest], HttpError | None]:
        """Take what one ``recv`` returned (``b""`` = EOF).

        Returns ``(started, requests, error)``: the requests the bytes
        completed, in order; when their first bytes arrived; and — at
        most once per connection, after which reading is shut — the
        framing error that ended the stream.  The error comes *after*
        ``requests``: a pipelined burst whose third request is malformed
        still gets requests one and two answered first.
        """
        if not data:
            self.reading_shut = True
            if self.parser.has_buffered_data:
                # EOF mid-message: the peer is gone, nothing to answer;
                # drop after any queued responses flush
                self.close_after_write = True
            return now, [], None
        self.last_activity = now
        if self.parse_started is None:
            self.parse_started = now
        started = self.parse_started
        parser = self.parser
        parser.feed(data)
        requests: list[HttpRequest] = []
        error = None
        try:
            while (request := parser.next_request()) is not None:
                requests.append(request)
        except HttpError as exc:
            self.reading_shut = True
            error = exc
        if requests:
            self.parse_started = now if parser.has_buffered_data else None
        return started, requests, error

    # -- bytes out ------------------------------------------------------

    def open_slot(self, now: float) -> ResponseSlot:
        """Reserve the next response position, in request order."""
        slot = ResponseSlot(dispatched_at=now)
        self.slots.append(slot)
        return slot

    def pump_ready(self, now: float) -> bool:
        """Move contiguous finished slots into the out-buffer.

        Returns True when new bytes became writable.
        """
        moved = False
        while self.slots and self.slots[0].done:
            slot = self.slots.popleft()
            if not self.outbuf:
                self.write_started = now
            self.outbuf += slot.payload
            if slot.close_after:
                self.close_after_write = True
                self.slots.clear()
                self.reading_shut = True
            moved = True
        return moved

    def wrote(self, nbytes: int, now: float) -> None:
        """The first ``nbytes`` of the out-buffer reached the kernel."""
        del self.outbuf[:nbytes]
        self.last_activity = now
        # the write deadline measures *stall*, not total transfer time:
        # any progress re-arms it, so a slow-but-draining reader of a
        # large response is never killed
        self.write_started = now if self.outbuf else None

    # -- deadlines ------------------------------------------------------

    def idle_remaining(self, now: float) -> float | None:
        """Seconds left to wait for request bytes; ``None`` = forever.

        Mid-request the anchor is when the request STARTED arriving — a
        slow-loris trickling header bytes resets nothing.
        """
        if self.idle_timeout is None:
            return None
        anchor = (
            self.parse_started
            if self.parse_started is not None
            else self.last_activity
        )
        return anchor + self.idle_timeout - now

    def timed_out(self, now: float) -> str | None:
        """The deadline this connection has blown, or ``None``.

        ``"write"`` — the peer made no read progress since the last
        successful send (a stall, not a total-transfer budget);
        ``"handler"`` — the oldest dispatched request has gone
        unanswered past the handler deadline (a dropped completion or
        a wedged worker must not leak the connection forever);
        ``"idle"`` — no complete request within the idle window while
        nothing is being answered (see :meth:`idle_remaining`).
        """
        if (
            self.write_timeout is not None
            and self.write_started is not None
            and now - self.write_started > self.write_timeout
        ):
            return "write"
        if (
            self.handler_timeout is not None
            and self.slots
            and not self.slots[0].done
            and now - self.slots[0].dispatched_at > self.handler_timeout
        ):
            return "handler"
        if not self.slots and not self.outbuf:
            remaining = self.idle_remaining(now)
            if remaining is not None and remaining < 0:
                return "idle"
        return None

    @property
    def finished(self) -> bool:
        """Nothing left to read, write, or wait for."""
        return self.reading_shut and not self.slots and not self.outbuf

    def want_read(self) -> bool:
        """Should the driver read more request bytes?

        False once reading is shut *or* pipelining is maxed out (the
        back-pressure valve: stop parsing until responses drain).
        """
        return not self.reading_shut and len(self.slots) < MAX_PIPELINED

    def want_write(self) -> bool:
        """Are there response bytes waiting for the socket?"""
        return bool(self.outbuf)


class HttpServerCore:
    """Shared state + behaviour for both server backends.

    Subclasses implement :meth:`start` / :meth:`stop` and the I/O: they
    feed a :class:`ConnectionState` what their sockets deliver, walk
    each request through :meth:`_admit` → :meth:`_handle` (on whichever
    thread runs the app) and answer framing errors with
    :meth:`_reject`.  They report connections through
    :meth:`_note_connection_opened` / :meth:`_note_connection_closed` /
    :meth:`_note_connection_timed_out` so the ``http.connections.*``
    metrics agree across backends.

    Every count lives in one :class:`~repro.obs.registry.MetricsRegistry`:
    ``observability.registry`` when there is one, else ``registry`` when
    given, else the core's own.
    """

    def __init__(
        self,
        app: App,
        *,
        transport: Transport,
        address: Address,
        observability: Observability | None = None,
        registry: MetricsRegistry | None = None,
        compression: CompressionPolicy | None = None,
        idle_timeout: float | None = 30.0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        """Keywords are :class:`~repro.server.config.ServerConfig` fields
        of the same names, documented there; ``registry`` is where the
        ``http.*`` instruments live (see the class docstring);
        ``clock`` is the monotonic source for deadlines and
        ``http.parse`` marks (``perf_counter`` matches the tracer's
        timebase)."""
        self._app = app
        self._obs = observability
        self._clock = clock
        self._transport = transport
        self._bind_address = address
        self._compression = compression
        self._idle_timeout = idle_timeout
        self._stopping = threading.Event()
        if observability is not None:
            registry = observability.registry
        elif registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        self._accepted = registry.counter("http.connections.accepted")
        self._active = registry.gauge("http.connections.active")
        self._peak = registry.gauge("http.connections.max_active")
        self._timed_out = registry.counter("http.connections.timed_out")
        self._requests = registry.counter("http.requests")
        self._compressed = registry.counter("compress.responses")
        self._bytes_saved = registry.counter("compress.bytes_saved")
        self._peak_lock = threading.Lock()
        self._busy_body: tuple[str, bytes] | None = None

    # -- lifecycle (subclass responsibility) ----------------------------

    def start(self) -> Address:
        """Bind, start serving; returns the bound address."""
        raise NotImplementedError

    def stop(self, *, join_timeout: float = 5.0) -> None:
        """Stop serving and release resources."""
        raise NotImplementedError

    @contextlib.contextmanager
    def running(self) -> Iterator[Address]:
        """Context manager: start, yield the bound address, stop."""
        address = self.start()
        try:
            yield address
        finally:
            self.stop()

    # -- traffic accounting ---------------------------------------------

    def _note_connection_opened(self) -> None:
        """Count an accepted connection and the high-water mark."""
        self._accepted.inc()
        self._active.add(1)
        with self._peak_lock:
            active = self._active.value
            if active > self._peak.value:
                self._peak.set(active)

    def _note_connection_closed(self) -> None:
        self._active.add(-1)

    def _note_connection_timed_out(self) -> None:
        self._timed_out.inc()

    # -- request lifecycle ----------------------------------------------

    def _admit(
        self,
        conn: ConnectionState,
        request: HttpRequest,
        started: float,
        deliver: Deliver,
    ) -> str | None:
        """Protocol-side half, on the thread that parsed ``request``.

        Answers admin requests on the spot and returns ``None``;
        otherwise names the request's trace (``""`` with observability
        off), records its ``http.parse`` span from ``started``, and
        returns the trace id to run :meth:`_handle` with.
        """
        obs = self._obs
        if obs is None:
            return ""
        admin = self._admin_response(request)
        if admin is not None:
            self._finish(conn, request, admin, "", deliver)
            return None
        trace_id = request.headers.get(TRACE_HTTP_HEADER) or new_trace_id()
        obs.tracer.record_span(
            "http.parse", trace_id, started, self._clock(), detail=request.path
        )
        return trace_id

    def _handle(
        self,
        conn: ConnectionState,
        request: HttpRequest,
        trace_id: str,
        deliver: Deliver,
    ) -> None:
        """Application-side half: run the app, answer what it returned.

        With a trace the app runs inside the ``server.handle`` root
        span with the trace context active, so phase spans opened
        inside it (soap.parse, spi.unpack, execute x M, ...) parent
        under it via the thread's ambient span stack.  When the app
        re-homes the request onto the trace id its SOAP header carries,
        the admitted trace completes here and the answer belongs to the
        adopted one.
        """
        try:
            if trace_id:
                tracer = self._obs.tracer
                activate(tracer, trace_id)
                try:
                    with tracer.span("server.handle", trace_id, detail=request.path):
                        response = self._app(request)
                    adopted = current_trace_id()
                finally:
                    deactivate()
                if adopted != trace_id:
                    if self._obs.store is not None:
                        self._obs.store.complete(trace_id, http_status=response.status)
                    trace_id = adopted
            else:
                response = self._app(request)
        except Exception as exc:  # app bug: report, keep serving
            response = HttpResponse(
                500,
                Headers({"Content-Type": "text/plain"}),
                f"internal error: {exc}".encode("utf-8"),
            )
        self._finish(conn, request, response, trace_id, deliver)

    def _finish(
        self,
        conn: ConnectionState,
        request: HttpRequest,
        response: HttpResponse,
        trace_id: str,
        deliver: Deliver,
    ) -> None:
        """Count, code, encode and deliver ``response``; end its trace.

        Every answer to a parsed request leaves through here — the
        app's, an admin document, a handler-stage shed — so each is
        counted once and each trace completes status-aware (503 shed /
        504 deadline / 4xx+ fault) *before* its bytes are handed over:
        a peer that has read its response can list its trace.  The
        ``http.send`` span ends after that and joins the retained
        record late.
        """
        self._requests.inc()
        self._maybe_compress(request, response)
        close = (
            not request.keep_alive
            or conn.close_after_write
            or self._stopping.is_set()
        )
        payload = self._response_bytes(response, close=close)
        if not trace_id:
            deliver(payload, close)
            return
        obs = self._obs
        if obs.store is not None:
            obs.store.complete(trace_id, http_status=response.status)
        with obs.tracer.span("http.send", trace_id, detail=f"{len(response.body)}B"):
            deliver(payload, close)

    def _reject(self, error: HttpError, deliver: Deliver) -> None:
        """Answer a framing error with its status, then close: after it
        the byte stream cannot be trusted to hold another request."""
        deliver(self._response_bytes(error_response(error), close=True), True)

    # -- admin surface --------------------------------------------------

    def _admin_response(self, request: HttpRequest) -> HttpResponse | None:
        """The admin surface: ``GET /metrics`` / ``/healthz`` /
        ``/traces`` / ``/trace/<id>``; None otherwise.

        ``/metrics`` defaults to the JSON snapshot;
        ``/metrics?format=prometheus`` renders the text exposition
        format a stock Prometheus can scrape.  ``/healthz`` is liveness
        and uptime.  ``/traces?slowest=N`` lists retained trace
        summaries; ``/trace/<id>`` renders one retained
        :class:`~repro.obs.store.TraceRecord` as its span tree, or with
        ``?format=text`` as its waterfall.
        """
        if request.method != "GET":
            return None
        path, _, query = request.path.partition("?")
        if path not in ADMIN_PATHS and not path.startswith(TRACE_PATH_PREFIX):
            return None
        obs = self._obs
        assert obs is not None
        params = query.split("&")
        status = 200
        if path == "/healthz":
            payload = {"status": "ok", "uptime_s": obs.uptime_s()}
        elif path == "/metrics":
            if "format=prometheus" in params:
                from repro.obs.prometheus import CONTENT_TYPE, render_prometheus

                return _text_response(CONTENT_TYPE, render_prometheus(self.registry))
            payload = obs.metrics_snapshot()
        elif obs.store is None:
            status, payload = 404, {"error": "span store not enabled"}
        elif path == "/traces":
            slowest = 20
            for part in params:
                name, _, value = part.partition("=")
                if name == "slowest" and value.isdigit():
                    slowest = int(value)
            payload = {"traces": obs.store.slowest(slowest), "stats": obs.store.stats()}
        else:
            trace_id = path[len(TRACE_PATH_PREFIX):]
            record = obs.store.get(trace_id)
            if record is None:
                status, payload = 404, {"error": f"trace {trace_id!r} not retained"}
            elif "format=text" in params:
                return _text_response("text/plain; charset=utf-8", render_timeline(record))
            else:
                payload = record.tree()
        return HttpResponse(
            status,
            Headers({"Content-Type": "application/json"}),
            json.dumps(payload, indent=2).encode("utf-8"),
        )

    # -- response coding ------------------------------------------------

    def _maybe_compress(self, request: HttpRequest, response: HttpResponse) -> None:
        """Content-code the response in place when negotiation allows it.

        Identity is kept for small bodies, for codings the client did
        not accept, for already-coded responses, and when coding would
        not actually shrink the body (incompressible payloads).
        """
        policy = self._compression
        if (
            policy is None
            or len(response.body) < policy.min_size
            or "Content-Encoding" in response.headers
        ):
            return
        encoding = choose_encoding(
            request.headers.get("Accept-Encoding"), policy
        )
        if encoding is None:
            return
        raw_size = len(response.body)
        coded = compress(response.body, encoding, level=policy.level)
        if len(coded) >= raw_size:
            return
        response.body = coded
        response.headers.set("Content-Encoding", encoding)
        response.headers.set("Vary", "Accept-Encoding")
        self._compressed.inc()
        self._bytes_saved.inc(raw_size - len(coded))

    def _response_bytes(self, response: HttpResponse, *, close: bool) -> bytes:
        """The response's wire bytes, framed by ``Content-Length``."""
        response.headers.set("Server", "repro-httpd/1.0")
        response.headers.set("Connection", "close" if close else "keep-alive")
        return response.to_bytes()

    def make_busy_response(self, detail: str) -> HttpResponse:
        """The accept-overload 503 sent before any parsing happens.

        Plain text by default; the ``repro.server`` config layer swaps
        in a SOAP ``Server.Busy`` fault body via ``busy_body`` so
        clients classify the shed as retryable (the http layer must not
        import soap).
        """
        body = self._busy_body
        if body is None:
            return HttpResponse(
                503,
                Headers({"Content-Type": "text/plain", "Retry-After": "1"}),
                detail.encode("utf-8"),
            )
        content_type, payload = body
        return HttpResponse(
            503,
            Headers({"Content-Type": content_type, "Retry-After": "1"}),
            payload,
        )

    def set_busy_body(self, content_type: str, payload: bytes) -> None:
        """Install the body served by accept-overload 503 responses."""
        self._busy_body = (content_type, payload)


def _text_response(content_type: str, text: str) -> HttpResponse:
    return HttpResponse(200, Headers({"Content-Type": content_type}), text.encode("utf-8"))


def error_response(exc: HttpError) -> HttpResponse:
    """A plain-text response carrying the error's HTTP status."""
    status = exc.status or 400
    return HttpResponse(
        status,
        Headers({"Content-Type": "text/plain"}),
        str(exc).encode("utf-8"),
    )
