"""Client-side HTTP connections and a keep-alive connection pool."""

from __future__ import annotations

import threading

from repro.errors import HttpError
from repro.http.message import HttpRequest, HttpResponse
from repro.http.parser import ChannelReader, read_response
from repro.transport.base import Address, Transport


class HttpConnection:
    """One HTTP/1.1 connection: serial request/response exchanges."""

    def __init__(self, transport: Transport, address: Address, *, timeout: float | None = 30.0) -> None:
        self._channel = transport.connect(address, timeout=timeout)
        self._reader = ChannelReader(self._channel)
        self._closed = False
        self._io_timeout_applied = False
        self.exchanges = 0

    def set_io_timeout(self, timeout: float | None) -> None:
        """Bound this connection's channel I/O (the deadline-rebase seam).

        ``None`` restores the channel's default blocking behaviour, but
        only if an explicit timeout was applied earlier — a pooled
        connection whose transport set its own ``io_timeout`` at connect
        time must not have it clobbered by a timeout-less caller.
        """
        if timeout is None and not self._io_timeout_applied:
            return
        self._channel.set_timeout(timeout)
        self._io_timeout_applied = timeout is not None

    def request(self, request: HttpRequest) -> HttpResponse:
        """One request/response exchange; honours keep-alive."""
        if self._closed:
            raise HttpError("request on closed connection")
        self._channel.sendall(request.to_bytes())
        response = read_response(self._reader)
        self.exchanges += 1
        if not response.keep_alive:
            self.close()
        return response

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the underlying channel; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._channel.close()

    def __enter__(self) -> "HttpConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ConnectionPool:
    """Keep-alive pool, one bucket per address.

    The "No Optimization" baseline deliberately bypasses this pool
    (fresh connection per request, as the paper's first approach); the
    SPI client uses it so the single packed exchange reuses a warm
    connection when one exists.
    """

    def __init__(self, transport: Transport, *, max_idle_per_address: int = 8,
                 timeout: float | None = 30.0) -> None:
        self._transport = transport
        self._timeout = timeout
        self._max_idle = max_idle_per_address
        self._idle: dict[tuple, list[HttpConnection]] = {}
        self._lock = threading.Lock()
        self.connections_created = 0

    def acquire(self, address: Address) -> HttpConnection:
        """Check out an idle connection or open a new one."""
        key = self._key(address)
        with self._lock:
            bucket = self._idle.get(key)
            while bucket:
                connection = bucket.pop()
                if not connection.closed:
                    return connection
        connection = HttpConnection(self._transport, address, timeout=self._timeout)
        with self._lock:
            self.connections_created += 1
        return connection

    def release(self, address: Address, connection: HttpConnection) -> None:
        """Return a connection to the idle pool (or close it)."""
        if connection.closed:
            return
        key = self._key(address)
        with self._lock:
            bucket = self._idle.setdefault(key, [])
            if len(bucket) < self._max_idle:
                bucket.append(connection)
                return
        connection.close()

    def close(self) -> None:
        """Close every idle pooled connection."""
        with self._lock:
            buckets = list(self._idle.values())
            self._idle.clear()
        for bucket in buckets:
            for connection in bucket:
                connection.close()

    @staticmethod
    def _key(address: Address) -> tuple:
        return tuple(address) if isinstance(address, (list, tuple)) else (address,)
