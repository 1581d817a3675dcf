"""User-facing pack API: batches and the packed invoker.

:class:`PackBatch` is the programming interface the paper's client
library provides ("the client should use the library provided by
assembler module", §3.4): collect calls, send them as one SOAP
message, get futures back — views onto the pack's one result array.

:class:`PackedInvoker` adapts the same machinery to the
:class:`~repro.client.invoker.Invoker` interface so the benches can
swap it in as the "Parallel Service Requests in One SOAP Message"
strategy of §4.1.
"""

from __future__ import annotations

from typing import Any

from repro.client.futures import InvocationFuture
from repro.client.invoker import Call, Invoker
from repro.client.proxy import ServiceProxy
from repro.core.assembler import ClientAssembler
from repro.core.dispatcher import pack_results
from repro.errors import PackError
from repro.resilience.policy import CallPolicy
from repro.soap.deserializer import decode_response_envelope


class PackBatch:
    """Collects calls; flushing sends ONE SOAP message for all of them.

    Usable as a context manager (flush on exit) or manually::

        batch = PackBatch(proxy)
        f1 = batch.call("GetWeather", city="Beijing", country="China")
        f2 = batch.call("GetWeather", city="Shanghai", country="China")
        batch.flush()
        print(f1.result(), f2.result())
    """

    def __init__(self, proxy: ServiceProxy, *, policy: CallPolicy | None = None) -> None:
        self._proxy = proxy
        self._policy = policy  # None -> the proxy's default at flush time
        self._assembler = ClientAssembler(proxy.namespace)
        self._flushed = False

    def call(self, operation: str, /, **params: Any) -> InvocationFuture:
        """Queue one invocation; returns its future immediately."""
        if self._flushed:
            raise PackError("batch already flushed; create a new one")
        return self._assembler.add_call(operation, params)

    def call_service(
        self, namespace: str, operation: str, /, **params: Any
    ) -> InvocationFuture:
        """Queue an invocation of a *different* service in the same
        container (the packed message's endpoint stays the proxy's)."""
        if self._flushed:
            raise PackError("batch already flushed; create a new one")
        return self._assembler.add_call(operation, params, namespace=namespace)

    def cast(self, operation: str, /, **params: Any) -> InvocationFuture:
        """Queue a fire-and-forget invocation.

        The future resolves to ``None`` once the server *accepts* the
        request; the operation's result is discarded server-side.
        """
        if self._flushed:
            raise PackError("batch already flushed; create a new one")
        return self._assembler.add_call(operation, params, one_way=True)

    def __len__(self) -> int:
        return len(self._assembler)

    def flush(self) -> list[InvocationFuture]:
        """Send the packed message and complete every queued future."""
        self.send()
        return self._assembler.futures

    def send(self) -> list[Any]:
        """Send the packed message; returns the pack's result array, one
        slot per queued call in call order (see
        :func:`~repro.core.dispatcher.pack_results`).  An assembly or
        transport failure fills every slot instead of raising."""
        if self._flushed:
            raise PackError("batch already flushed")
        self._flushed = True
        assembler = self._assembler
        if not len(assembler):
            return []
        futures = assembler.futures
        try:
            envelope = assembler.assemble(
                headers=[h.copy() for h in self._proxy.extra_headers]
            )
            # one policy covers the whole pack: one deadline header, one
            # retry budget for the single packed exchange
            body = self._proxy.exchange(
                envelope, action="Parallel_Method", policy=self._policy
            )
            slots = pack_results(decode_response_envelope(body), futures)
        except BaseException as exc:
            slots = [exc] * len(futures)
        assembler.results.fill(slots)
        return slots

    def __enter__(self) -> "PackBatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # on an exception inside the with-block, fail the queued futures
        # instead of sending a half-built batch
        if exc_type is not None:
            if not self._flushed:
                self._flushed = True
                self._assembler.results.fail(
                    PackError(f"batch abandoned: {exc_type.__name__}: {exc}")
                )
            return
        self.flush()


class PackedInvoker(Invoker):
    """"Our Approach" of §4.1: M requests in one SOAP message."""

    name = "packed"

    def __init__(self, proxy: ServiceProxy, *, policy: CallPolicy | None = None) -> None:
        self.proxy = proxy
        self.policy = policy

    def run_all(self, calls: list[Call], policy: CallPolicy | None) -> list[Any]:
        """Queue every call into one batch; its result array."""
        batch = PackBatch(self.proxy, policy=policy)
        for call in calls:
            batch.call(call.operation, **call.params)
        return batch.send()
