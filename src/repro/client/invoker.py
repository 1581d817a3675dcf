"""The paper's first two client strategies (§4.1).

* :class:`SerialInvoker` — "Serial Service Requests in Multiple SOAP
  Messages": M messages issued one after another in one client thread.
  This is the "No Optimization" line in Figures 5–7.
* :class:`ThreadedInvoker` — "Parallel Service Requests in Multiple
  SOAP Messages": the client "start[s] multiple threads to access many
  services simultaneously".  The "Multiple Threads" line.

The third strategy ("Parallel Service Requests in One SOAP Message")
is SPI itself: :class:`repro.core.batch.PackedInvoker`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.client.futures import unwrap
from repro.client.proxy import ServiceProxy
from repro.resilience.policy import CallPolicy


@dataclass(frozen=True, slots=True)
class Call:
    """One planned service invocation."""

    operation: str
    params: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def many(cls, operation: str, param_list: list[Mapping[str, Any]]) -> list["Call"]:
        return [cls(operation, params) for params in param_list]


class Invoker:
    """Strategy interface: run a batch of calls into one result array.

    A strategy implements :meth:`run_all`; :meth:`invoke_all` hands the
    array out as values.  Every strategy consumes one
    :class:`~repro.resilience.CallPolicy`: the ``policy`` argument if
    given, else the invoker's own (set at construction), else the
    proxy's default.
    """

    name = "invoker"
    policy: CallPolicy | None = None

    def run_all(self, calls: list[Call], policy: CallPolicy | None) -> list[Any]:
        """Run all calls; one slot per call, in order: its value, or the
        exception it failed with."""
        raise NotImplementedError

    def invoke_all(
        self, calls: list[Call], policy: CallPolicy | None = None
    ) -> list[Any]:
        """Run all calls and return their results, in call order; the
        first failure propagates once every call has run."""
        return unwrap(self.run_all(calls, self._effective_policy(policy)))

    def _effective_policy(self, policy: CallPolicy | None) -> CallPolicy | None:
        return policy if policy is not None else self.policy


class SerialInvoker(Invoker):
    """One thread, M sequential request/response exchanges."""

    name = "serial"

    def __init__(self, proxy: ServiceProxy, *, policy: CallPolicy | None = None) -> None:
        self.proxy = proxy
        self.policy = policy

    def run_all(self, calls: list[Call], policy: CallPolicy | None) -> list[Any]:
        """One blocking request/response exchange per call."""
        slots: list[Any] = []
        for call in calls:
            try:
                slots.append(self.proxy.call_with_policy(call.operation, policy, **call.params))
            except BaseException as exc:
                slots.append(exc)
        return slots


class KeepAliveSerialInvoker(SerialInvoker):
    """Serial requests over ONE persistent connection.

    Not one of the paper's three strategies — an ablation this
    reproduction adds to decompose the packing win: keep-alive removes
    the per-call TCP handshake but still pays M HTTP heads and M SOAP
    envelopes, so the gap between this and :class:`PackedInvoker`
    isolates the message-count (header + parse) savings from the
    connection-count savings.
    """

    name = "serial-keepalive"

    def __init__(self, proxy: ServiceProxy, *, policy: CallPolicy | None = None) -> None:
        from repro.client.config import build_proxy

        self._owned = not proxy.reuse_connections
        if self._owned:
            proxy = build_proxy(proxy.config.replace(reuse_connections=True))
        super().__init__(proxy, policy=policy)

    def run_all(self, calls: list[Call], policy: CallPolicy | None) -> list[Any]:
        """Serial exchanges over one pooled connection."""
        try:
            return super().run_all(calls, policy)
        finally:
            if self._owned:
                self.proxy.close()


class ThreadedInvoker(Invoker):
    """M client threads, each issuing its own SOAP message.

    As the paper notes (§3.1), this raises concurrency but "cannot
    reduce the number of the SOAP messages": every call still pays a
    connection, an HTTP head and a SOAP envelope.
    """

    name = "threaded"

    def __init__(self, proxy: ServiceProxy, *, policy: CallPolicy | None = None) -> None:
        self.proxy = proxy
        self.policy = policy

    def run_all(self, calls: list[Call], policy: CallPolicy | None) -> list[Any]:
        """One client thread (and connection) per call."""
        slots: list[Any] = [None] * len(calls)

        def worker(index: int, call: Call) -> None:
            try:
                slots[index] = self.proxy.call_with_policy(call.operation, policy, **call.params)
            except BaseException as exc:
                slots[index] = exc

        threads = []
        for index, call in enumerate(calls):
            thread = threading.Thread(target=worker, args=(index, call), daemon=True)
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()
        return slots
