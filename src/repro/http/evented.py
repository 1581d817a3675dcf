"""Event-loop HTTP/1.1 driver: one thread, thousands of connections.

The C10K counterpart of :class:`~repro.http.server.HttpServer`, over
the same engine (:mod:`repro.http.core`).  A single ``selectors``-based
loop thread owns *all* socket I/O — accept, read into each connection's
:class:`~repro.http.core.ConnectionState`, write-back — while every
complete request's application half runs on a bounded ``http-handler``
:class:`~repro.server.stage.Stage`.  Finished responses travel back
through a completion deque plus a wakeup socketpair, so the loop never
blocks on application work and workers never touch a socket:

::

    loop thread                         handler stage (bounded pool)
    -----------                         ----------------------------
    select() ──ready──► recv ──► ConnectionState.receive
       ▲                                  │ complete request
       │                                  ▼ _admit, stage.submit(_handle)
       │                             app(request) ─► fill response slot
       │  wakeup byte + deque entry ◄─────┘
       └── drain completions ─► pump finished slots ─► send

The SEDA argument (paper Fig. 2, Welsh et al.): the protocol stage
must be non-blocking I/O feeding bounded worker pools, so overload
surfaces as explicit sheds (``Server.Busy``) instead of thread
explosion.  Three shed rungs, outermost first:

1. **accept overload** — active connections at ``max_connections``:
   a canned 503 is written straight from the loop, before any parse;
2. **handler-stage saturation** — ``stage.submit`` raises
   :class:`~repro.errors.PoolSaturatedError`: whole-message 503;
3. the app-stage per-entry sheds of the staged architecture
   (unchanged — entries inside a pack fault individually).

Per-connection read-idle, write-stall, and handler deadlines are data
of the connection state; the loop sweeps them with an injectable
monotonic clock.
"""

from __future__ import annotations

import collections
import functools
import selectors
import socket
import threading
import time
from typing import Callable

from repro.errors import HttpError, PoolSaturatedError
from repro.http.compression import CompressionPolicy
from repro.http.core import (
    App,
    ConnectionState,
    Deliver,
    HttpServerCore,
    ResponseSlot,
)
from repro.http.message import HttpRequest
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Observability
from repro.transport.base import Address, Transport

#: Deadline sweeps run at most this often — O(connections) work that
#: does not need per-event freshness.
SWEEP_INTERVAL_S = 0.25

#: Upper bound on one select() wait, so stop() and deadline sweeps are
#: never starved by a silent socket set.
MAX_POLL_S = 0.2


class _ConnectionLost(Exception):
    """The peer is gone (reset/broken pipe); close without ceremony."""


def _recv_nonblocking(sock, max_bytes: int = 65536) -> bytes | None:
    """One non-blocking recv: ``None`` = no data yet, ``b''`` = EOF.

    The loop's only read primitive — the
    ``may-block-on-event-loop-transitive`` analysis holds every other
    ``recv`` the loop reaches to it.
    """
    try:
        return sock.recv(max_bytes)
    except (BlockingIOError, InterruptedError):
        return None
    except OSError:
        # reset mid-read reads like EOF: framing decides if it was clean
        return b""


def _send_nonblocking(sock, data) -> int:
    """One non-blocking send: bytes written (0 = kernel buffer full).

    Raises :class:`_ConnectionLost` when the peer is gone.
    """
    try:
        return sock.send(data)
    except (BlockingIOError, InterruptedError):
        return 0
    except OSError as exc:
        raise _ConnectionLost(str(exc)) from exc


def _accept_nonblocking(sock):
    """One non-blocking accept: ``(conn, peer)`` or ``None``."""
    try:
        return sock.accept()
    except (BlockingIOError, InterruptedError):
        return None
    except OSError:
        return None


class _SocketConnection(ConnectionState):
    """A connection state plus the non-blocking socket the loop moves
    its bytes through."""

    __slots__ = ("sock",)

    def __init__(self, sock: socket.socket, **state) -> None:
        super().__init__(**state)
        self.sock = sock


class EventedHttpServer(HttpServerCore):
    """Non-blocking protocol stage in front of bounded worker stages.

    Same constructor surface as the threaded server plus the loop
    knobs; requires a transport implementing ``selectable_listen``
    (TCP and its shaped/chaos wrappers — not in-proc).
    """

    def __init__(
        self,
        app: App,
        *,
        transport: Transport,
        address: Address,
        server_header: str = "repro-httpd/1.0",
        chunk_responses_over: int | None = None,
        chunk_size: int = 8192,
        max_connections: int | None = None,
        observability: Observability | None = None,
        registry: MetricsRegistry | None = None,
        compression: CompressionPolicy | None = None,
        slo_config: dict | None = None,
        protocol_workers: int = 8,
        protocol_queue_limit: int | None = 1024,
        idle_timeout: float | None = 30.0,
        write_timeout: float | None = 30.0,
        handler_timeout: float | None = 60.0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        """Keywords are :class:`~repro.server.config.ServerConfig` fields
        of the same names, documented there.  ``max_connections`` here
        is the *accept-overload budget*: past it, new peers get a canned
        503 written from the loop before any parsing (rung 1 of the shed
        ladder) — unlike the threaded backend, which parks excess peers
        in the backlog.  ``clock`` is the monotonic source for deadlines
        and ``http.parse`` marks (``perf_counter`` by default, matching
        the tracer's timebase; injectable for tests).
        """
        super().__init__(
            app,
            transport=transport,
            address=address,
            server_header=server_header,
            chunk_responses_over=chunk_responses_over,
            chunk_size=chunk_size,
            observability=observability,
            registry=registry,
            compression=compression,
            slo_config=slo_config,
            idle_timeout=idle_timeout,
            clock=clock,
        )
        self._max_connections = max_connections
        self._protocol_workers = protocol_workers
        self._protocol_queue_limit = protocol_queue_limit
        self._write_timeout = write_timeout
        self._handler_timeout = handler_timeout
        self._accept_shed = self.registry.counter("http.accept_overload.shed")
        self._loop_lag = self.registry.gauge("http.loop.lag_s")
        self._listen_sock: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._loop_thread: threading.Thread | None = None
        self._stage = None
        self._connections: dict[int, _SocketConnection] = {}
        # GIL-atomic handoff: workers append, the loop pops; the wakeup
        # socketpair only exists to interrupt select()
        self._completions: collections.deque[_SocketConnection] = (
            collections.deque()
        )
        self._wakeup_recv: socket.socket | None = None
        self._wakeup_send: socket.socket | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> Address:
        """Bind, start the loop thread; returns the bound address."""
        if self._listen_sock is not None:
            raise HttpError("server already started")
        from repro.server.stage import Stage

        self._listen_sock = self._transport.selectable_listen(
            self._bind_address
        )
        self._stage = Stage(
            "http-handler",
            self._protocol_workers,
            registry=self.registry,
            max_queue=self._protocol_queue_limit,
        )
        self._wakeup_recv, self._wakeup_send = socket.socketpair()
        self._wakeup_recv.setblocking(False)
        self._wakeup_send.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(
            self._listen_sock, selectors.EVENT_READ, "accept"
        )
        self._selector.register(
            self._wakeup_recv, selectors.EVENT_READ, "wakeup"
        )
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="http-loop", daemon=True
        )
        self._loop_thread.start()
        return self.address

    def stop(self, *, join_timeout: float = 5.0) -> None:
        """Stop the loop, close every connection, drain the stage."""
        if self._listen_sock is None:
            return
        self._stopping.set()
        self._wake()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=join_timeout)
        if self._stage is not None:
            self._stage.shutdown()

    @property
    def address(self) -> Address:
        if self._listen_sock is None:
            raise HttpError("server not started")
        return self._listen_sock.getsockname()

    # -- the loop -------------------------------------------------------

    def _run_loop(self) -> None:
        assert self._selector is not None
        clock = self._clock
        last_sweep = clock()
        try:
            while not self._stopping.is_set():
                # a worker may have finished between drain and select
                timeout = 0.0 if self._completions else MAX_POLL_S
                intended_wake = clock() + timeout
                events = self._selector.select(timeout)
                now = clock()
                if events:
                    # how late the loop is to ready work: the C10K
                    # health signal (a busy loop shows rising lag long
                    # before connections error out)
                    self._loop_lag.set(max(0.0, now - intended_wake))
                for key, mask in events:
                    if key.data == "accept":
                        self._accept_ready(now)
                    elif key.data == "wakeup":
                        self._drain_wakeup(now)
                    else:
                        self._connection_ready(key.data, mask, now)
                self._drain_completions(now)
                if now - last_sweep >= SWEEP_INTERVAL_S:
                    last_sweep = now
                    self._sweep_deadlines(now)
        finally:
            self._teardown()

    def _accept_ready(self, now: float) -> None:
        assert self._listen_sock is not None
        while True:
            accepted = _accept_nonblocking(self._listen_sock)
            if accepted is None:
                return
            sock, _peer = accepted
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            if (
                self._max_connections is not None
                and len(self._connections) >= self._max_connections
            ):
                self._shed_accept(sock)
                continue
            self._note_connection_opened()
            conn = _SocketConnection(
                sock,
                now=now,
                idle_timeout=self._idle_timeout,
                write_timeout=self._write_timeout,
                handler_timeout=self._handler_timeout,
            )
            self._connections[sock.fileno()] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _shed_accept(self, sock: socket.socket) -> None:
        """Rung 1: over the connection budget — 503 before parse."""
        self._accept_shed.inc()
        response = self.make_busy_response("server busy: connection budget exceeded")
        payload = b"".join(self._response_payloads(response, close=True))
        try:
            # best-effort: the canned 503 fits any fresh socket buffer;
            # a peer that vanished just gets the close
            _send_nonblocking(sock, payload)
        except _ConnectionLost:
            pass
        sock.close()

    def _drain_wakeup(self, now: float) -> None:
        assert self._wakeup_recv is not None
        while _recv_nonblocking(self._wakeup_recv, 4096):
            pass

    def _wake(self) -> None:
        """Nudge select() from another thread; safe to call anytime."""
        if self._wakeup_send is None:
            return
        try:
            _send_nonblocking(self._wakeup_send, b"\x00")
        except (_ConnectionLost, OSError):
            pass

    def _connection_ready(
        self, conn: _SocketConnection, mask: int, now: float
    ) -> None:
        if mask & selectors.EVENT_WRITE:
            try:
                self._flush(conn, now)
            except _ConnectionLost:
                self._close_connection(conn)
                return
        if mask & selectors.EVENT_READ:
            while conn.want_read():
                data = _recv_nonblocking(conn.sock)
                if data is None:
                    break
                started, requests, error = conn.receive(data, now)
                for request in requests:
                    self._dispatch(conn, request, started, now)
                if error is not None:
                    self._reject(error, self._deliver_into(conn, now))
        if conn.finished:
            self._close_connection(conn)
            return
        self._update_interest(conn)

    # -- request handling -----------------------------------------------

    def _dispatch(
        self,
        conn: _SocketConnection,
        request: HttpRequest,
        started: float,
        now: float,
    ) -> None:
        deliver = self._deliver_into(conn, now)
        trace_id = self._admit(conn, request, started, deliver)
        if trace_id is None:
            return
        assert self._stage is not None
        try:
            self._stage.submit(
                self._handle, conn, request, trace_id, deliver
            )
        except PoolSaturatedError:
            # rung 2: the handler stage is the bounded protocol queue
            response = self.make_busy_response(
                "server busy: handler stage saturated"
            )
            self._finish(conn, request, response, trace_id, deliver)

    def _deliver_into(self, conn: _SocketConnection, now: float) -> Deliver:
        """The ``deliver`` of the next response position on ``conn``."""
        return functools.partial(self._fill, conn, conn.open_slot(now))

    def _fill(
        self,
        conn: _SocketConnection,
        slot: ResponseSlot,
        payloads: list[bytes],
        close: bool,
    ) -> None:
        """Any thread: park a coded response in its slot, tell the loop.

        Loop-side answers (admin, sheds, framing errors) take the same
        road as the workers': the loop drains its completions after the
        events of every pass, so nothing is flushed — and no connection
        judged finished — before every slot of a parsed batch exists.
        """
        slot.fill(b"".join(payloads), close_after=close)
        self._completions.append(conn)
        self._wake()

    # -- completions + write-back ---------------------------------------

    def _drain_completions(self, now: float) -> None:
        # No dedup: a worker may append the same connection again AFTER
        # an earlier pump_ready inspected its slots in this very drain,
        # and skipping that entry would consume the completion unpumped
        # (wakeup byte already drained, response never written — the
        # connection would hang forever).  pump_ready is idempotent and
        # O(1) when nothing is ready, so duplicates are cheap.
        pending = self._completions
        while pending:
            conn = pending.popleft()
            if self._connections.get(conn.sock.fileno()) is not conn:
                continue  # closed (or fd reused) while the worker ran
            if conn.pump_ready(now):
                self._flush_now(conn, now)

    def _flush(self, conn: _SocketConnection, now: float) -> bool:
        """Write what the kernel will take; True when fully drained.

        Raises :class:`_ConnectionLost` when the peer vanished.
        """
        while conn.outbuf:
            sent = _send_nonblocking(conn.sock, conn.outbuf)
            if sent == 0:
                return False
            conn.wrote(sent, now)
        return True

    def _flush_now(self, conn: _SocketConnection, now: float) -> None:
        """Optimistic immediate flush; fall back to write interest."""
        try:
            drained = self._flush(conn, now)
        except _ConnectionLost:
            self._close_connection(conn)
            return
        if drained and conn.finished:
            self._close_connection(conn)
            return
        self._update_interest(conn)

    def _update_interest(self, conn: _SocketConnection) -> None:
        assert self._selector is not None
        if conn.sock.fileno() not in self._connections:
            return
        mask = 0
        if conn.want_read():
            mask |= selectors.EVENT_READ
        if conn.want_write():
            mask |= selectors.EVENT_WRITE
        key = self._selector.get_map().get(conn.sock)
        current = key.events if key is not None else 0
        if mask == current:
            return
        if mask == 0:
            # parked: pipelining maxed out and nothing to write yet —
            # the completion drain re-arms it
            self._selector.unregister(conn.sock)
        elif current == 0:
            self._selector.register(conn.sock, mask, conn)
        else:
            self._selector.modify(conn.sock, mask, conn)

    def _sweep_deadlines(self, now: float) -> None:
        expired = [
            conn
            for conn in self._connections.values()
            if conn.timed_out(now) is not None
        ]
        for conn in expired:
            self._note_connection_timed_out()
            self._close_connection(conn)

    def _close_connection(self, conn: _SocketConnection) -> None:
        fileno = conn.sock.fileno()
        if self._connections.pop(fileno, None) is None:
            return
        assert self._selector is not None
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass  # parked: not registered
        try:
            conn.sock.close()
        except OSError:
            pass
        self._note_connection_closed()

    def _teardown(self) -> None:
        for conn in list(self._connections.values()):
            self._close_connection(conn)
        if self._selector is not None:
            self._selector.close()
        for sock in (self._listen_sock, self._wakeup_recv, self._wakeup_send):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
