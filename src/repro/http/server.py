"""Threaded HTTP/1.1 driver over a :class:`~repro.transport.base.Transport`.

The blocking I/O driver of the engine in :mod:`repro.http.core`: an
accept loop plus one thread per connection that ``recv`` s into the
connection's :class:`~repro.http.core.ConnectionState`, walks each
parsed request through the shared request lifecycle on that same
thread, and ``sendall`` s the answer.  It is architecture-agnostic; the
paper's two architectures differ in what happens *inside* the
application callable ``app(HttpRequest) -> HttpResponse``:

* common architecture (Fig. 1): the connection thread itself performs
  SOAP parsing and service execution — protocol and application
  processing coupled in one thread;
* staged architecture (Fig. 2): the callable parses, hands work to the
  application-stage pool and parks until the response is assembled.

Framing, the admin surface, tracing, compression negotiation, response
wire coding and the read-idle deadline are the engine's, shared with the
event-loop driver in :mod:`repro.http.evented`.
"""

from __future__ import annotations

import threading

from repro.errors import HttpError, TransportError
from repro.http.compression import CompressionPolicy
from repro.http.core import App, ConnectionState, HttpServerCore
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Observability
from repro.transport.base import Address, Channel, Listener, ListenerClosed, Transport


class HttpServer(HttpServerCore):
    """Accepts connections and runs one handler thread per connection.

    Connection threads come from an unbounded-but-recycled set: the
    paper's "thread pool created in the transport layer".  Keep-alive
    is honoured, so a client doing M serial requests on one connection
    stays on one server thread.
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
        idle_timeout: float | None = 30.0,
    ) -> None:
        """Keywords are :class:`~repro.server.config.ServerConfig` fields
        of the same names, documented there.  ``max_connections`` here
        bounds the protocol stage: at most this many connections are
        serviced concurrently ("too many concurrent threads will
        degrade throughput rapidly", §3.3); excess connections wait in
        the accept backlog.
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
        )
        self._connection_slots = (
            threading.Semaphore(max_connections) if max_connections else None
        )
        self._listener: Listener | None = None
        self._accept_thread: threading.Thread | None = None
        self._connection_threads: set[threading.Thread] = set()
        self._threads_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> Address:
        """Bind, start accepting; returns the bound address."""
        if self._listener is not None:
            raise HttpError("server already started")
        self._listener = self._transport.listen(self._bind_address)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="http-accept", daemon=True
        )
        self._accept_thread.start()
        return self._listener.address

    def stop(self, *, join_timeout: float = 5.0) -> None:
        """Close the listener and join worker threads."""
        self._stopping.set()
        if self._listener is not None:
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=join_timeout)
        with self._threads_lock:
            threads = list(self._connection_threads)
        for thread in threads:
            thread.join(timeout=join_timeout)

    @property
    def address(self) -> Address:
        if self._listener is None:
            raise HttpError("server not started")
        return self._listener.address

    # -- internals ----------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            if self._connection_slots is not None:
                # bound the protocol stage: wait for a free slot before
                # accepting (excess peers queue in the kernel backlog)
                while not self._connection_slots.acquire(timeout=0.1):
                    if self._stopping.is_set():
                        return
            try:
                channel = self._listener.accept()
            except ListenerClosed:
                self._release_slot()
                return
            except TransportError:
                self._release_slot()
                if self._stopping.is_set():
                    return
                continue
            self._note_connection_opened()
            thread = threading.Thread(
                target=self._serve_connection,
                args=(channel,),
                name="http-conn",
                daemon=True,
            )
            with self._threads_lock:
                self._connection_threads.add(thread)
            thread.start()

    def _serve_connection(self, channel: Channel) -> None:
        clock = self._clock
        deadline = self._idle_timeout is not None
        conn = ConnectionState(now=clock(), idle_timeout=self._idle_timeout)

        def deliver(payloads: list[bytes], close: bool) -> None:
            if close:
                conn.close_after_write = True
            if deadline:
                # the read deadline must not cut a slow reader's response
                channel.set_timeout(None)
            try:
                # one sendall per payload: the shaped transport prices
                # each sendall, so chunked framing keeps its per-frame cost
                for payload in payloads:
                    channel.sendall(payload)
            except TransportError:
                conn.close_after_write = True

        try:
            while not conn.reading_shut and not self._stopping.is_set():
                try:
                    if deadline:
                        remaining = conn.idle_remaining(clock())
                        if remaining <= 0:
                            raise TransportError("read-idle deadline passed")
                        channel.set_timeout(remaining)
                    data = channel.recv()
                except TransportError:
                    # a reset — or the read deadline: the clock tells
                    if conn.timed_out(clock()) is not None:
                        self._note_connection_timed_out()
                    return
                started, requests, error = conn.receive(data, clock())
                for request in requests:
                    trace_id = self._admit(conn, request, started, deliver)
                    if trace_id is not None:
                        self._handle(conn, request, trace_id, deliver)
                    if conn.close_after_write:
                        return
                if error is not None:
                    self._reject(error, deliver)
        finally:
            channel.close()
            self._note_connection_closed()
            self._release_slot()
            with self._threads_lock:
                self._connection_threads.discard(threading.current_thread())

    def _release_slot(self) -> None:
        if self._connection_slots is not None:
            self._connection_slots.release()
