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
  :class:`~repro.server.stage.CompletionLatch`, and the response
  is assembled in arrival order.  The stage admits one entry per idle
  worker plus one per free ``app_queue_limit`` slot (each entry past
  that gets its own ``Server.Busy`` slot); its workers cascade — each
  claims an entry, wakes at most one more while some stay unclaimed,
  runs its entry and claims again — so a pack costs a couple of
  wake-ups, not one hand-off per entry.

  Staging pays only when entries wait: under the GIL, entries that
  compute never overlap.  So the staged server places each pack from
  data.  Its awaited entries run on the protocol thread, exactly as
  Figure 1 runs them, when nothing in it can overlap: one awaited
  entry, or entries of deployed operations whose last off-CPU times on
  a stage worker (wall minus thread CPU time) sum below the stage's
  measured hand-off cost.  An operation not measured yet, a name
  nobody deployed, and any pack before the first hand-off was measured
  go to the stage; so do one-way entries, always.  A pack placed here
  by its measurements that waited at least the hand-off cost clears
  them, so its operations' next pack is staged and measured again.  CPU
  time spent outside the GIL (zlib, hashlib) counts as CPU, so such an
  operation is placed inline.

:meth:`SoapServer._execute` is that decision and nothing else; what
happens to an entry whose deadline has passed, or whose sender does not
want the result, is the same under both.

The server owns one :class:`~repro.obs.registry.MetricsRegistry`
(``observability.registry`` when there is one) and hands it to every
layer it builds: the HTTP driver, the endpoint, the container and the
application stage all count into it.  Every executed entry of a
deployed operation also records into that operation's latency sketch
and fault counter, which the container binds at deploy.
"""

from __future__ import annotations

import contextlib
import math
import time
from typing import Iterator

from repro.errors import fault_class_of
from repro.obs import trace as obs_trace
from repro.obs.registry import MetricsRegistry
from repro.server.config import ServerConfig, build_http_server
from repro.server.container import ServiceContainer, entry_fault
from repro.server.endpoint import SoapEndpoint
from repro.server.handlers import MessageContext
from repro.server.stage import CompletionLatch, Stage
from repro.soap.constants import FAULT_TAG
from repro.soap.deserializer import DecodedEntry
from repro.soap.fault import SoapFault, busy_fault, timeout_fault
from repro.soap.serializer import accepted_response
from repro.transport.base import Address
from repro.transport.tcp import TcpTransport
from repro.xmlcore.tree import Element

EXECUTION_TIMEOUT = 120.0

# a staged entry the caller waits for, and a one-way entry it does not
_AWAITED = "awaited"
_DETACHED = "one-way"


class SoapServer:
    """One SOAP deployment; ``config.architecture`` picks who executes."""

    def __init__(self, config: ServerConfig) -> None:
        if config.transport is None:
            config = config.replace(transport=TcpTransport())
        self.config = config
        self.architecture = config.architecture
        observability = config.observability
        registry = (
            observability.registry if observability is not None else MetricsRegistry()
        )
        self.registry = registry
        # what an entry answered without executing adds to, by fault class
        self._skip_counters = {
            "timeout": registry.counter("resilience.deadline_expired"),
            "shed": registry.counter("resilience.shed"),
        }
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
        self.http = build_http_server(self.endpoint, config, registry=registry)

    def _execute(self, entries: list[Element], context: MessageContext) -> list[Element]:
        deadline = context.deadline
        stage = self.app_stage
        # The protocol thread's trace context does not follow work onto
        # the stage workers' threads; capture it here and attach each
        # per-entry execute span explicitly.
        ctx = obs_trace.current()
        # one record per entry, its operation looked up once, read from
        # here to the writer
        record_of = self.container.record_of
        entries = [record_of(entry) for entry in entries]
        results: list[Element | None] = [None] * len(entries)
        staged: list[tuple[str, int, DecodedEntry]] = []  # (kind, slot, entry)
        # Figure 1 runs every entry here; Figure 2 runs a pack's awaited
        # entries here only when nothing in it can overlap
        here = None if stage is None else self._placed_here(entries)
        # a pack placed here by its measurements is timed once: did it wait?
        timed = here is not None and len(here) > 1
        if timed:
            cpu, start = time.thread_time(), time.perf_counter()

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
            elif entry.one_way:
                # acknowledged now, result dropped: fire-and-forget on
                # the stage, or right here when Figure 1 has no other
                # thread to give it to
                results[index] = accepted_response(entry)
                if stage is None:
                    self._run(ctx, entry)
                else:
                    staged.append((_DETACHED, index, entry))
            elif stage is None or here is not None:
                # Figure 1: run here, in order — so the deadline is read
                # again after every sibling.  Here is the calling
                # thread: the HTTP connection thread, or on the evented
                # backend a bounded http-handler worker, never the loop.
                results[index] = self._run(ctx, entry)
            else:
                staged.append((_AWAITED, index, entry))

        if timed:
            waited = time.perf_counter() - start - (time.thread_time() - cpu)
            if waited >= stage.handoff_s:  # stage and measure it next time
                for record in here:
                    record.off_cpu_s = None
        if staged:
            self._fan_out(staged, results, ctx, deadline)
        return [entry for entry in results if entry is not None]

    def _placed_here(self, entries: list[DecodedEntry]) -> list | None:
        """Figure 2's placement of one pack: the records of its awaited
        entries when they run on this thread (a lone entry's is ``None``
        when nobody deployed its name), or ``None`` when they go to the
        stage.

        Here when nothing can overlap: one awaited entry, or entries
        whose operations' last off-CPU times on the stage sum below the
        stage's measured hand-off cost — which understates what staging
        costs, so the rule errs toward the stage.
        """
        records = []
        off_cpu = 0.0
        for entry in entries:
            if not entry.one_way:
                record = entry.operation
                records.append(record)
                if record is None or record.off_cpu_s is None:
                    off_cpu = math.inf  # never staged, or waited since
                else:
                    off_cpu += record.off_cpu_s
        if len(records) < 2:
            return records
        handoff = self.app_stage.handoff_s
        return records if handoff is not None and off_cpu < handoff else None

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

        def settle(item: tuple[str, int, DecodedEntry], shed: str | None = None) -> None:
            kind, index, entry = item
            if shed is not None:  # retryable: the work never ran
                results[index] = self._skipped(
                    entry, busy_fault(f"'{entry.local_name}' not run: application stage {shed}")
                )
            else:
                try:
                    result = self._run(ctx, entry, on_stage=True)
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

    def _run(self, ctx, entry: DecodedEntry, on_stage: bool = False) -> Element:
        """Execute one entry, timing a deployed operation into its
        sketch and counting its faults; on a stage worker, also write
        its off-CPU time, which places its later packs.  Under a trace
        context, inside its ``execute`` span."""
        if ctx is not None:
            with obs_trace.span_in(ctx, "execute", detail=entry.local_name):
                return self._run(None, entry, on_stage)
        record = entry.operation
        if record is None:  # not deployed: the Client fault alone
            return self.container.execute(entry)
        if on_stage:
            cpu = time.thread_time()
        start = time.perf_counter()
        response = self.container.execute(entry)
        wall = time.perf_counter() - start
        if on_stage:
            record.off_cpu_s = max(wall - (time.thread_time() - cpu), 0.0)
        record.seconds.record(wall)
        if response.tag == FAULT_TAG:
            record.faults.inc()
        return response

    def _skipped(self, entry: DecodedEntry, fault: SoapFault) -> Element:
        """The slot of an entry answered without (or instead of)
        executing — a shed or a deadline expiry.  It never ran, so it
        is counted here, in ``resilience.*`` alone."""
        self._skip_counters[fault_class_of(fault.faultcode)].inc()
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
