"""In-process transport: channels are pairs of byte queues.

No sockets, no kernel, fully deterministic teardown — the transport the
unit tests run the whole stack over.  Addresses are plain strings
resolved against the owning transport instance's registry.
"""

from __future__ import annotations

import queue
import threading

from repro.errors import TransportError
from repro.transport.base import (
    Address,
    Channel,
    ChannelClosed,
    Listener,
    ListenerClosed,
    Transport,
)

_EOF = object()


class _QueueChannel(Channel):
    """One direction reads what the other wrote, socket-style."""

    def __init__(self, inbox: "queue.Queue", outbox: "queue.Queue") -> None:
        self._inbox = inbox
        self._outbox = outbox
        self._recv_buffer = b""
        self._closed = False
        self._peer_eof = False
        self._timeout: float | None = None
        self._lock = threading.Lock()

    def set_timeout(self, timeout: float | None) -> None:
        self._timeout = timeout

    def sendall(self, data: bytes) -> None:
        if self._closed:
            raise ChannelClosed("sendall on closed channel")
        self._outbox.put(bytes(data))

    def recv(self, max_bytes: int = 65536) -> bytes:
        if self._closed:
            raise ChannelClosed("recv on closed channel")
        if self._recv_buffer:
            chunk, self._recv_buffer = (
                self._recv_buffer[:max_bytes],
                self._recv_buffer[max_bytes:],
            )
            return chunk
        if self._peer_eof:
            return b""
        try:
            item = self._inbox.get(timeout=self._timeout)
        except queue.Empty:
            raise TransportError(
                f"recv timed out after {self._timeout}s"
            ) from None
        if item is _EOF:
            self._peer_eof = True
            return b""
        data: bytes = item
        chunk, self._recv_buffer = data[:max_bytes], data[max_bytes:]
        return chunk

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._outbox.put(_EOF)  # the peer reads end of stream
        self._inbox.put(_EOF)  # so does a recv of ours blocked in get


def _channel_pair() -> tuple[Channel, Channel]:
    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    return _QueueChannel(b_to_a, a_to_b), _QueueChannel(a_to_b, b_to_a)


class _InProcListener(Listener):
    def __init__(self, transport: "InProcTransport", name: str) -> None:
        self._transport = transport
        self._name = name
        self._backlog: queue.Queue = queue.Queue()
        self._closed = False

    @property
    def address(self) -> Address:
        return self._name

    def accept(self, timeout: float | None = None) -> Channel:
        if self._closed:
            raise ListenerClosed(f"listener '{self._name}' is closed")
        try:
            item = self._backlog.get(timeout=timeout)
        except queue.Empty:
            raise TransportError(f"accept timed out on '{self._name}'") from None
        if item is _EOF:
            raise ListenerClosed(f"listener '{self._name}' is closed")
        return item

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._transport._unregister(self._name)
        self._backlog.put(_EOF)

    def _enqueue(self, channel: Channel) -> None:
        self._backlog.put(channel)


class InProcTransport(Transport):
    """Registry of named in-process listeners."""

    def __init__(self) -> None:
        self._listeners: dict[str, _InProcListener] = {}
        self._lock = threading.Lock()

    def listen(self, address: Address) -> Listener:
        """Register a named in-process listener."""
        name = str(address)
        with self._lock:
            if name in self._listeners:
                raise TransportError(f"address '{name}' already in use")
            listener = _InProcListener(self, name)
            self._listeners[name] = listener
        return listener

    def connect(self, address: Address, timeout: float | None = None) -> Channel:
        """Connect to a registered in-process listener."""
        name = str(address)
        with self._lock:
            listener = self._listeners.get(name)
        if listener is None:
            raise TransportError(f"connection refused: no listener at '{name}'")
        client_end, server_end = _channel_pair()
        listener._enqueue(server_end)
        return client_end

    def _unregister(self, name: str) -> None:
        with self._lock:
            self._listeners.pop(name, None)
