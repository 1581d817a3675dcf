"""Automatic packing — the paper's stated future work, implemented.

§3.4/§5: "In the future, we will try to make the assemblers and
dispatchers module pack and unpack SOAP message automatically.  So, the
client who would not like to modify the code will benefit from the same
advantage too."

:class:`AutoPacker` gives unmodified call-site code (plain blocking
calls, possibly from many threads) the packed wire behaviour: calls
arriving within a time window — or until the batch size cap — are
transparently assembled into one Parallel_Method message.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.client.futures import InvocationFuture, settle
from repro.client.proxy import ServiceProxy
from repro.core.batch import PackBatch
from repro.errors import PackError


@dataclass(slots=True)
class AutoPackStats:
    calls: int = 0
    flushes: int = 0
    packed_calls: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.packed_calls / self.flushes if self.flushes else 0.0


class AutoPacker:
    """Transparent time-window/threshold batcher over a proxy.

    Parameters
    ----------
    proxy:
        Target service proxy.
    max_batch:
        Flush as soon as this many calls are pending.
    max_delay:
        Flush at the latest this many seconds after the first pending
        call arrived (the latency bound a caller can tolerate).
    """

    def __init__(
        self,
        proxy: ServiceProxy,
        *,
        max_batch: int = 16,
        max_delay: float = 0.002,
    ) -> None:
        if max_batch < 1:
            raise PackError("max_batch must be >= 1")
        if max_delay < 0:
            raise PackError("max_delay must be >= 0")
        self._proxy = proxy
        self._max_batch = max_batch
        self._max_delay = max_delay
        self._pending: list[tuple[str, dict[str, Any], InvocationFuture]] = []
        self._first_enqueued_at = 0.0
        self._condition = threading.Condition()
        self._closed = False
        self.stats = AutoPackStats()
        self._flusher = threading.Thread(
            target=self._flush_loop, name="spi-autopack", daemon=True
        )
        self._flusher.start()

    # -- public API -----------------------------------------------------

    def submit(self, operation: str, /, **params: Any) -> InvocationFuture:
        """Queue a call; it is sent within ``max_delay`` seconds."""
        future = InvocationFuture(operation)
        with self._condition:
            if self._closed:
                raise PackError("AutoPacker is closed")
            if not self._pending:
                self._first_enqueued_at = time.monotonic()
            self._pending.append((operation, dict(params), future))
            self.stats.calls += 1
            self._condition.notify_all()
        return future

    def call(self, operation: str, /, **params: Any) -> Any:
        """Blocking call through the packer — the unmodified-client shape."""
        return self.submit(operation, **params).result()

    def flush(self) -> None:
        """Force the current window out immediately."""
        with self._condition:
            batch = self._take_pending_locked()
        if batch:
            self._send(batch)

    def close(self) -> None:
        """Stop the flusher and send anything still pending."""
        with self._condition:
            if self._closed:
                return
            self._closed = True
            self._condition.notify_all()
        self._flusher.join(timeout=5)
        self.flush()

    def __enter__(self) -> "AutoPacker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals --------------------------------------------------------

    def _flush_loop(self) -> None:
        while True:
            with self._condition:
                while not self._pending and not self._closed:
                    self._condition.wait()
                if self._closed:
                    return
                deadline = self._first_enqueued_at + self._max_delay
                while (
                    self._pending
                    and len(self._pending) < self._max_batch
                    and not self._closed
                ):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._condition.wait(timeout=remaining)
                batch = self._take_pending_locked()
            if batch:
                self._send(batch)

    def _take_pending_locked(self) -> list[tuple[str, dict[str, Any], InvocationFuture]]:
        batch, self._pending = self._pending, []
        return batch

    def _send(self, batch: list[tuple[str, dict[str, Any], InvocationFuture]]) -> None:
        self.stats.flushes += 1
        self.stats.packed_calls += len(batch)
        pack = PackBatch(self._proxy)
        for operation, params, _ in batch:
            pack.call(operation, **params)
        settle([outer for _, _, outer in batch], pack.send())
