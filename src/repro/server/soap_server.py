"""The SOAP server: Figure 1 and Figure 2 as two scheduling policies.

The paper's two architectures share everything — HTTP layer, endpoint,
handler chain, container — and differ in one decision, taken after the
message has been parsed: *which thread runs its entries*.

* **common** (Figure 1): "The thread created in transport layer will
  complete the functions from the HTTP parsing to service operation
  execution."  The protocol thread runs every entry itself, in order;
  no application stage is built.
* **staged** (Figure 2): "After parsing the SOAP message, the protocol
  processing thread goes to sleep ... some worker threads from the
  thread pool of the application processing stage will be assigned to
  complete the services request.  When the event about the completion
  of services application execution happens ... the sleeping thread of
  protocol processing stage will be waked up to complete generating the
  packet."  The pack goes to a :class:`~repro.server.stage.Stage` as
  one batch, the protocol thread parks on a
  :class:`~repro.server.threadpool.CompletionLatch`, and the response
  is assembled in arrival order.  The stage admits one entry per idle
  worker plus one per free ``app_queue_limit`` slot (each entry past
  that gets its own ``Server.Busy`` slot); its workers cascade — each
  claims an entry, wakes at most one more while some stay unclaimed,
  runs its entry and claims again — so a pack costs a couple of
  wake-ups, not one hand-off per entry.

:meth:`SoapServer._execute` is that decision and nothing else; what
happens to an entry whose deadline has passed, or whose sender does not
want the result, is the same under both.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.errors import fault_class_of
from repro.obs import trace as obs_trace
from repro.server.config import ServerConfig, build_http_server
from repro.server.container import ServiceContainer, entry_fault
from repro.server.endpoint import SoapEndpoint
from repro.server.handlers import MessageContext
from repro.server.stage import Stage
from repro.server.threadpool import CompletionLatch
from repro.soap.fault import SoapFault, busy_fault, timeout_fault
from repro.transport.base import Address
from repro.transport.tcp import TcpTransport
from repro.xmlcore.tree import Element

EXECUTION_TIMEOUT = 120.0

# what an entry answered without executing adds to, by fault class
_SKIP_COUNTERS = {
    "timeout": "resilience.deadline_expired",
    "shed": "resilience.shed",
}

# the application stage's per-kind counts: entries the caller waits
# for, and one-way entries it does not
_AWAITED = "service-execution"
_DETACHED = "one-way-execution"


class SoapServer:
    """One SOAP deployment; ``config.architecture`` picks who executes."""

    def __init__(self, config: ServerConfig) -> None:
        if config.transport is None:
            config = config.replace(transport=TcpTransport())
        self.config = config
        self.architecture = config.architecture
        observability = config.observability
        self.observability = observability
        registry = observability.registry if observability is not None else None
        self.container = ServiceContainer(list(config.services), registry=registry)
        # Figure 2's application stage (admission: see _fan_out);
        # Figure 1 has none.
        self.app_stage: Stage | None = None
        if config.architecture == "staged":
            self.app_stage = Stage(
                "application",
                config.app_workers,
                registry=registry,
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

    def _execute(self, entries: list[Element], context: MessageContext) -> list[Element]:
        from repro.core.oneway import accepted_response, is_one_way

        deadline = context.deadline
        stage = self.app_stage
        # The protocol thread's trace context does not follow work onto
        # the stage workers' threads; capture it here and attach each
        # per-entry execute span explicitly.
        ctx = obs_trace.current()
        results: list[Element | None] = [None] * len(entries)
        staged: list[tuple[str, int, Element]] = []  # (kind, slot, entry)

        # Triage — the same under both policies — then who runs it.
        # Each fault claims only its own slot: siblings still answer
        # (partial-success packs).
        for index, entry in enumerate(entries):
            if deadline is not None and deadline.expired():
                # The client's budget is gone: nobody waits for an
                # answer.  Retryable: the work never ran.
                results[index] = self._skipped(
                    entry,
                    timeout_fault(f"deadline expired before '{entry.local_name}' ran"),
                )
            elif is_one_way(entry):
                # acknowledged now, result dropped: fire-and-forget on
                # the stage, or right here when Figure 1 has no other
                # thread to give it to
                results[index] = accepted_response(entry)
                if stage is None:
                    self._run(ctx, entry)
                else:
                    staged.append((_DETACHED, index, entry))
            elif stage is None:
                # Figure 1: run here, in order — so the deadline is read
                # again after every sibling
                results[index] = self._run(ctx, entry)
            else:
                staged.append((_AWAITED, index, entry))

        if len(staged) == 1 and staged[0][0] is _AWAITED:
            # Figure 2 with nothing to overlap: stay on the calling
            # thread — the HTTP connection thread, or on the evented
            # backend a bounded http-handler worker, never the loop.
            _, index, entry = staged[0]
            results[index] = self._run(ctx, entry)
        elif staged:
            self._fan_out(staged, results, ctx, deadline)
        return [entry for entry in results if entry is not None]

    def _fan_out(self, staged, results, ctx, deadline) -> None:
        """Figure 2: the pack goes to the application stage as one batch
        and the caller parks on a latch until the last awaited entry
        counts down.

        Admission is per entry: one per idle worker plus one per free
        ``app_queue_limit`` slot, and each entry past that answers with
        its own retryable ``Server.Busy`` slot.  Workers cascade: each
        claims an entry, wakes at most one more while some stay
        unclaimed, runs its entry and claims again.  One-way entries
        ride the same batch but nobody waits for them.
        """
        latch = CompletionLatch(sum(kind is _AWAITED for kind, _, _ in staged))

        def settle(item: tuple[str, int, Element], shed: str | None = None) -> None:
            kind, index, entry = item
            if shed is not None:  # retryable: the work never ran
                results[index] = self._skipped(
                    entry, busy_fault(f"'{entry.local_name}' not run: application stage {shed}")
                )
            else:
                try:
                    result = self._run(ctx, entry)
                except BaseException as exc:  # fault the slot, not the pack
                    result = entry_fault(entry, SoapFault.from_exception(exc))
                if kind is _AWAITED:
                    results[index] = result
            if kind is _AWAITED:
                latch.count_down()

        for item in self.app_stage.run_batch(staged, settle):
            settle(item, "is full")

        # the protocol thread "goes to sleep" here; its patience is the
        # client's remaining budget, capped by the local bound
        wait_s = EXECUTION_TIMEOUT
        if deadline is not None:
            wait_s = min(wait_s, max(deadline.remaining(), 0.001))
        if not latch.wait(timeout=wait_s):
            # Workers may still be running; answer for them with a
            # retryable timeout fault per unfinished slot rather than
            # failing the entire message.
            for kind, index, entry in staged:
                if kind is _AWAITED and results[index] is None:
                    late = f"'{entry.local_name}' did not finish within {wait_s:.3f}s"
                    results[index] = self._skipped(entry, timeout_fault(late))

    def _run(self, ctx, entry: Element) -> Element:
        with obs_trace.span_in(ctx, "execute", detail=entry.local_name):
            return self.container.execute_entry(entry)

    def _skipped(self, entry: Element, fault: SoapFault) -> Element:
        """The slot of an entry answered without (or instead of)
        executing — a shed or a deadline expiry.  The container never
        saw it, so it is counted and fed to the target's rollup here."""
        if self.observability is not None:
            fault_class = fault_class_of(fault.faultcode)
            registry = self.observability.registry
            registry.counter(_SKIP_COUNTERS[fault_class]).inc()
            registry.rollup(entry.namespace, entry.local_name).observe(
                0.0, fault_class
            )
        return entry_fault(entry, fault)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> Address:
        """Start the HTTP layer; returns the bound address."""
        return self.http.start()

    def stop(self) -> None:
        """Stop the HTTP layer and the application stage."""
        self.http.stop()
        if self.app_stage is not None:
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
        stats = {
            "architecture": self.architecture,
            "endpoint": self.endpoint.stats.snapshot(),
            "container": self.container.stats.snapshot(),
            "connections_accepted": self.http.connections_accepted,
            "requests_served": self.http.requests_served,
        }
        if self.app_stage is not None:
            stats["app_stage"] = self.app_stage.stats.snapshot()
        return stats
