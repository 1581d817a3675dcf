"""Chaos transport: deterministic fault injection for resilience tests.

Wraps any base transport and perturbs *client-initiated* requests.  One
HTTP request is exactly one client-side ``sendall`` (the HTTP layer
writes head+body in a single call), so injection decisions map 1:1 to
requests.  Three failure modes, each with its own rate:

* **drop** — the request never reaches the server: the channel closes
  and the send raises :class:`~repro.errors.TransportError`, exactly
  what a connection reset mid-request looks like to the client;
* **busy** — the request is swallowed and a canned ``HTTP 503`` +
  ``Server.Busy`` SOAP fault is played back, emulating an overloaded
  intermediary shedding load before the server sees the message;
* **delay** — the request is forwarded after ``delay_s`` of added
  latency.

Decisions come from one seeded :class:`random.Random`, so a given
(seed, request sequence) always produces the same fault pattern — the
property the chaos test suite leans on.  Both injected failure modes
are "work did not run" failures, matching the retryable contract of
:class:`~repro.resilience.CallPolicy`.

Server-side (listener) channels pass through untouched.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from random import Random
from typing import Callable

from repro.errors import TransportError
from repro.soap.constants import SOAP_CONTENT_TYPE
from repro.soap.envelope import Envelope
from repro.soap.fault import busy_fault
from repro.transport.base import Address, Channel, Listener, Transport

PASS = "pass"
DROP = "drop"
BUSY = "busy"
DELAY = "delay"


def _busy_response_bytes() -> bytes:
    """The canned 503 response injected by the busy mode."""
    envelope = Envelope()
    envelope.add_body(
        busy_fault("chaos: injected Server.Busy (request shed in transit)").to_element()
    )
    body = envelope.to_bytes()
    head = (
        "HTTP/1.1 503 Service Unavailable\r\n"
        f"Content-Type: {SOAP_CONTENT_TYPE}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body


@dataclass(slots=True)
class ChaosStats:
    """What the chaos layer did to the request stream."""

    requests: int = 0
    passed: int = 0
    dropped: int = 0
    busied: int = 0
    delayed: int = 0

    def snapshot(self) -> dict[str, int]:
        """Counters as a plain dict."""
        return {
            "requests": self.requests,
            "passed": self.passed,
            "dropped": self.dropped,
            "busied": self.busied,
            "delayed": self.delayed,
        }


class ChaosChannel(Channel):
    """Client-side channel applying one injection decision per send."""

    def __init__(self, inner: Channel, transport: "ChaosTransport") -> None:
        self._inner = inner
        self._transport = transport
        self._injected = b""
        self._swallowed = False

    def sendall(self, data: bytes) -> None:
        mode = self._transport._decide()
        if mode == DROP:
            self._inner.close()
            raise TransportError("chaos: request dropped before reaching the server")
        if mode == BUSY:
            # swallow the request; the reply is already queued
            self._injected += _BUSY_RESPONSE
            self._swallowed = True
            return
        if mode == DELAY:
            self._transport._sleep(self._transport.delay_s)
        self._inner.sendall(data)

    def recv(self, max_bytes: int = 65536) -> bytes:
        if self._injected:
            chunk, self._injected = self._injected[:max_bytes], self._injected[max_bytes:]
            return chunk
        if self._swallowed:
            # the synthesized exchange is over; behave like a closed peer
            return b""
        return self._inner.recv(max_bytes)

    def set_timeout(self, timeout: float | None) -> None:
        self._inner.set_timeout(timeout)

    def close(self) -> None:
        self._inner.close()


class ChaosTransport(Transport):
    """Fault-injecting view over ``base``.

    ``drop_rate``/``busy_rate``/``delay_rate`` are per-request
    probabilities evaluated in that order from one seeded RNG;
    their sum must not exceed 1.
    """

    def __init__(
        self,
        base: Transport,
        *,
        drop_rate: float = 0.0,
        busy_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_s: float = 0.005,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        for name, rate in (
            ("drop_rate", drop_rate),
            ("busy_rate", busy_rate),
            ("delay_rate", delay_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise TransportError(f"{name} must be within [0, 1]")
        if drop_rate + busy_rate + delay_rate > 1.0:
            raise TransportError("chaos rates must sum to at most 1")
        self.base = base
        self.drop_rate = drop_rate
        self.busy_rate = busy_rate
        self.delay_rate = delay_rate
        self.delay_s = delay_s
        self.stats = ChaosStats()
        self._sleep = sleep
        self._rng = Random(seed)
        self._lock = threading.Lock()

    def listen(self, address: Address) -> Listener:
        """Server side is untouched: chaos only hits outbound requests."""
        return self.base.listen(address)

    def selectable_listen(self, address: Address):
        """Server side is untouched: delegate to the base transport."""
        return self.base.selectable_listen(address)

    def connect(self, address: Address, timeout: float | None = None) -> Channel:
        """An outbound channel whose sends roll the injection dice."""
        return ChaosChannel(self.base.connect(address, timeout), self)

    # -- internals -----------------------------------------------------

    def _decide(self) -> str:
        """One injection decision; RNG draw order is the determinism
        contract (request N always sees draw N)."""
        with self._lock:
            roll = self._rng.random()
            self.stats.requests += 1
            if roll < self.drop_rate:
                self.stats.dropped += 1
                return DROP
            if roll < self.drop_rate + self.busy_rate:
                self.stats.busied += 1
                return BUSY
            if roll < self.drop_rate + self.busy_rate + self.delay_rate:
                self.stats.delayed += 1
                return DELAY
            self.stats.passed += 1
            return PASS


_BUSY_RESPONSE = _busy_response_bytes()
