"""Figure 2: the staged independent thread pool architecture.

Two independent pools: the protocol-processing stage (the HTTP
connection threads, which parse HTTP+SOAP) and the application-
processing stage (a :class:`~repro.server.stage.Stage` of workers
executing service operations).

"After parsing the SOAP message, the protocol processing thread goes to
sleep ... some worker threads from the thread pool of the application
processing stage will be assigned to complete the services request.
When the event about the completion of services application execution
happens ... the sleeping thread of protocol processing stage will be
waked up to complete generating the packet."

The executor below is that sentence in code: submit every entry to the
application stage, park the protocol thread on a
:class:`~repro.server.threadpool.CompletionLatch`, wake it when the
last worker finishes, then assemble the response in arrival order.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.errors import PoolSaturatedError, ServiceError
from repro.obs import trace as obs_trace
from repro.server.config import ServerConfig, build_http_server
from repro.server.container import ServiceContainer, entry_fault
from repro.server.endpoint import SoapEndpoint
from repro.server.stage import Stage
from repro.server.threadpool import CompletionLatch
from repro.soap.fault import SoapFault, busy_fault, timeout_fault
from repro.transport.base import Address
from repro.transport.tcp import TcpTransport
from repro.xmlcore.tree import Element

DEFAULT_APP_WORKERS = 16
EXECUTION_TIMEOUT = 120.0


class StagedSoapServer:
    """Protocol and application processing decoupled into two stages."""

    architecture = "staged"

    def __init__(self, config: ServerConfig) -> None:
        if config.transport is None:
            config = config.replace(transport=TcpTransport())
        self.config = config
        observability = config.observability
        self.observability = observability
        self.container = ServiceContainer(
            list(config.services),
            registry=observability.registry if observability is not None else None,
        )
        # app_queue_limit bounds the application stage's backlog: once
        # that many entries wait for a worker, further entries shed with
        # a Server.Busy fault instead of queueing unboundedly.
        self.app_stage = Stage(
            "application",
            config.app_workers,
            registry=observability.registry if observability is not None else None,
            max_queue=config.app_queue_limit,
        )
        self.endpoint = SoapEndpoint(
            self.container,
            self._execute,
            chain=config.chain,
            observability=observability,
        )
        self.transport = config.transport
        self.http = build_http_server(self.endpoint, config)

    def _execute(
        self, entries: list[Element], context: MessageContext
    ) -> list[Element]:
        from repro.core.oneway import accepted_response, is_one_way

        if not entries:
            return []
        deadline = context.deadline
        results: list[Element | None] = [None] * len(entries)
        waited: list[tuple[int, Element]] = []
        # The protocol thread's trace context does not follow work onto
        # the stage workers' threads; capture it here and attach each
        # per-entry execute span explicitly.
        ctx = obs_trace.current()

        # Triage pass: expired entries fault immediately (retryable —
        # the work never ran), one-way entries are acknowledged now and
        # executed fire-and-forget, everything else waits for a worker.
        # Each fault claims only its own slot: siblings still answer
        # (partial-success packs).
        for index, entry in enumerate(entries):
            if deadline is not None and deadline.expired():
                results[index] = entry_fault(
                    entry,
                    timeout_fault(
                        f"deadline expired before '{entry.local_name}' ran"
                    ),
                )
                self._count("resilience.deadline_expired")
                self._observe_skipped(entry, "timeout")
            elif is_one_way(entry):
                results[index] = accepted_response(entry)
                try:
                    self.app_stage.submit(
                        self._execute_traced, ctx, entry, kind="one-way-execution"
                    )
                except (PoolSaturatedError, ServiceError) as exc:
                    # the ack is already committed; record the shed in
                    # place of the silently-dropped execution.  A
                    # ServiceError means the stage is draining for
                    # shutdown — same retryable busy answer, not a
                    # bare 500 (fault-flow-escape invariant).
                    results[index] = entry_fault(entry, busy_fault(str(exc)))
                    self._count("resilience.shed")
                    self._observe_skipped(entry, "shed")
            else:
                waited.append((index, entry))

        if len(waited) == 1:
            # Nothing to overlap: keep a single waited request on the
            # calling thread and spare a context switch (the common
            # fast path).  On the threaded backend that is the HTTP
            # connection thread; on the evented backend it is a bounded
            # http-handler stage worker — never the event loop — so the
            # fast path stays safe under SEDA's "nothing heavy on the
            # loop" rule and the app stage still bounds overlapped
            # packs.
            index, entry = waited[0]
            with obs_trace.span("execute", detail=entry.local_name):
                results[index] = self.container.execute_entry(entry)
        elif waited:
            latch = CompletionLatch(len(waited))

            def run(index: int, entry: Element) -> None:
                try:
                    results[index] = self._execute_traced(ctx, entry)
                except BaseException as exc:  # fault the slot, not the pack
                    results[index] = entry_fault(entry, SoapFault.from_exception(exc))
                finally:
                    latch.count_down()

            for index, entry in waited:
                try:
                    self.app_stage.submit(run, index, entry, kind="service-execution")
                except (PoolSaturatedError, ServiceError) as exc:
                    # stage saturated mid-pack (or draining for
                    # shutdown): shed this entry alone, retryably
                    results[index] = entry_fault(entry, busy_fault(str(exc)))
                    self._count("resilience.shed")
                    self._observe_skipped(entry, "shed")
                    latch.count_down()

            # the protocol thread "goes to sleep" here; its patience is
            # the client's remaining budget, capped by the local bound
            wait_s = EXECUTION_TIMEOUT
            if deadline is not None:
                wait_s = min(wait_s, max(deadline.remaining(), 0.001))
            if not latch.wait(timeout=wait_s):
                # Workers may still be running; answer for them with a
                # retryable timeout fault per unfinished slot rather
                # than failing the entire message.
                for index, entry in waited:
                    if results[index] is None:
                        results[index] = entry_fault(
                            entry,
                            timeout_fault(
                                f"'{entry.local_name}' did not finish "
                                f"within {wait_s:.3f}s"
                            ),
                        )
                        self._count("resilience.deadline_expired")
                        self._observe_skipped(entry, "timeout")
        return [entry for entry in results if entry is not None]

    def _count(self, name: str) -> None:
        if self.observability is not None:
            self.observability.registry.counter(name).inc()

    def _observe_skipped(self, entry: Element, fault_class: str) -> None:
        """Entries faulted before (or instead of) executing — sheds and
        deadline expiries — still count into the target's rollup; the
        container never saw them."""
        if self.observability is not None:
            self.observability.registry.rollup(
                entry.namespace, entry.local_name
            ).observe(0.0, fault_class)

    def _execute_traced(self, ctx, entry: Element) -> Element:
        with obs_trace.span_in(ctx, "execute", detail=entry.local_name):
            return self.container.execute_entry(entry)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> Address:
        """Start the HTTP layer; returns the bound address."""
        return self.http.start()

    def stop(self) -> None:
        """Stop the HTTP layer and the application stage."""
        self.http.stop()
        self.app_stage.shutdown()

    @contextlib.contextmanager
    def running(self) -> Iterator[Address]:
        """Context manager: start, yield the bound address, stop."""
        address = self.start()
        try:
            yield address
        finally:
            self.stop()

    @property
    def address(self) -> Address:
        return self.http.address

    def stats(self) -> dict:
        """Endpoint/container/stage/HTTP counters as a dict."""
        return {
            "architecture": self.architecture,
            "endpoint": self.endpoint.stats.snapshot(),
            "container": self.container.stats.snapshot(),
            "app_stage": self.app_stage.stats.snapshot(),
            "app_pool": self.app_stage.pool_stats(),
            "connections_accepted": self.http.connections_accepted,
            "requests_served": self.http.requests_served,
        }
