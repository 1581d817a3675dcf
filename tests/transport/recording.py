"""Recording transport: every request a client puts on the wire.

Wraps a base transport; each outbound channel appends what it sends to
the transport's ``sent`` list, in send order, so a test can count the
sends behind one call and read the headers each one carried.  Server
(listener) channels pass through untouched.
"""

from __future__ import annotations

import threading

from repro.transport.base import Channel, Transport


class _RecordingChannel(Channel):
    """Delegating channel whose every ``sendall`` is recorded."""

    def __init__(self, inner, transport):
        self._inner = inner
        self._transport = transport

    def sendall(self, data):
        with self._transport._lock:
            self._transport.sent.append(bytes(data))
        self._inner.sendall(data)

    def recv(self, max_bytes=65536):
        return self._inner.recv(max_bytes)

    def close(self):
        self._inner.close()

    def set_timeout(self, timeout):
        self._inner.set_timeout(timeout)


class RecordingTransport(Transport):
    """Outbound connections of ``base``, with every send recorded."""

    def __init__(self, base):
        self.base = base
        self.channels = []  # every outbound channel, in connect order
        self.sent = []  # every request put on the wire, in send order
        self._lock = threading.Lock()

    def listen(self, address):
        return self.base.listen(address)

    def connect(self, address, timeout=None):
        channel = _RecordingChannel(self.base.connect(address, timeout), self)
        with self._lock:
            self.channels.append(channel)
        return channel
