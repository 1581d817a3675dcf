"""Queryable in-process trace store with tail-based sampling.

PR-3's JSONL span sink writes spans out and forgets them; answering
"show me the slowest packed request of the last minute, as a tree"
meant grepping a log.  The :class:`SpanStore` keeps *completed traces*
— parent/child span trees — in a bounded in-process ring instead, and
the admin surface serves them back:

* ``GET /trace/<id>``     — one trace's span tree (forest of roots);
* ``GET /traces?slowest=N`` — summaries, slowest first.

**Tail-based sampling.**  Keeping every trace is pointless (identical
fast echoes) and unbounded; dropping uniformly loses exactly the
traces worth reading.  The store decides *at completion time*, when it
knows how the trace went:

1. flagged traces — any fault, shed, or deadline expiry — are always
   kept;
2. slow traces — duration at or above the ``keep_percentile`` of the
   store's own duration sketch — are always kept;
3. the boring middle is kept with probability ``sample_rate``
   (injectable rng for deterministic tests).

**Bounds.**  Everything is bounded and the bounds are enforced on
every mutation: at most ``max_pending`` in-flight traces (spans arrive
before their trace completes), ``max_spans_per_trace`` spans per trace
(the rest are counted, not stored), and a retained ring of at most
``max_traces`` records *and* ``max_bytes`` of estimated span payload.
Eviction prefers boring traces: flagged records are only evicted when
nothing unflagged remains.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from typing import Iterable

from repro.errors import fault_class_of_status
from repro.obs.sketch import QuantileSketch
from repro.obs.trace import Span

#: Flags a trace can carry; any flag forces retention.
FLAG_FAULT = "fault"
FLAG_SHED = "shed"
FLAG_DEADLINE = "deadline"

# an HTTP error status flags its trace by the status's fault class
_FLAG_OF_CLASS = {"shed": FLAG_SHED, "timeout": FLAG_DEADLINE, "fatal": FLAG_FAULT}

DEFAULT_MAX_TRACES = 256
DEFAULT_MAX_PENDING = 512
DEFAULT_MAX_SPANS = 512
DEFAULT_MAX_BYTES = 4_000_000
DEFAULT_KEEP_PERCENTILE = 0.95
DEFAULT_SAMPLE_RATE = 0.1

#: Estimated fixed per-span storage cost (ids, floats, dict overhead)
#: on top of the variable name/detail text.
_SPAN_BASE_COST = 120


def _span_cost(span: Span) -> int:
    return _SPAN_BASE_COST + len(span.name) + len(span.detail)


class _Pending:
    """Spans of a not-yet-completed trace (bounded)."""

    __slots__ = ("spans", "flags", "dropped_spans", "byte_size")

    def __init__(self) -> None:
        # bounded by SpanStore.max_spans_per_trace at every ingest()
        self.spans: list[Span] = []  # repro: disable=no-unbounded-span-store
        self.flags: set[str] = set()
        self.dropped_spans = 0
        self.byte_size = 0


class TraceRecord:
    """One completed, retained trace."""

    __slots__ = (
        "trace_id",
        "spans",
        "flags",
        "dropped_spans",
        "byte_size",
        "start",
        "end",
        "completions",
    )

    def __init__(
        self, trace_id: str, spans: list[Span], flags: set[str], dropped: int
    ) -> None:
        self.trace_id = trace_id
        self.spans = spans
        self.flags = flags
        self.dropped_spans = dropped
        self.byte_size = sum(_span_cost(s) for s in spans)
        self.start = min((s.start for s in spans), default=0.0)
        self.end = max((s.end for s in spans), default=0.0)
        self.completions = 1

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    def summary(self) -> dict:
        """The ``/traces`` listing row."""
        return {
            "trace_id": self.trace_id,
            "duration_s": self.duration_s,
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
            "flags": sorted(self.flags),
            "completions": self.completions,
        }

    def tree(self) -> dict:
        """The ``/trace/<id>`` document: spans nested parent → child.

        Spans whose parent is unknown (or outside the record) become
        roots; a trace is therefore a *forest* — e.g. ``http.parse``
        (timed before the trace id was known) next to the
        ``server.handle`` tree holding one ``execute`` child per pack
        entry.
        """
        children: dict[str, list[Span]] = {}
        by_id = {span.span_id: span for span in self.spans}
        roots: list[Span] = []
        for span in sorted(self.spans, key=lambda s: (s.start, s.end)):
            if span.parent_id and span.parent_id in by_id:
                children.setdefault(span.parent_id, []).append(span)
            else:
                roots.append(span)

        def node(span: Span) -> dict:
            rendered = span.as_dict()
            rendered["children"] = [
                node(child) for child in children.get(span.span_id, [])
            ]
            return rendered

        return {
            "trace_id": self.trace_id,
            "duration_s": self.duration_s,
            "flags": sorted(self.flags),
            "dropped_spans": self.dropped_spans,
            "roots": [node(root) for root in roots],
        }


class SpanStore:
    """Bounded ring of completed traces with tail-based sampling.

    Attach to an :class:`~repro.obs.trace.Observability` (or hand it
    straight to a ``Tracer``); finished spans flow in via
    :meth:`ingest`, the request path marks interesting traces via
    :meth:`mark`, and the HTTP layer calls :meth:`complete` once the
    response is on the wire.
    """

    def __init__(
        self,
        *,
        max_traces: int = DEFAULT_MAX_TRACES,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_spans_per_trace: int = DEFAULT_MAX_SPANS,
        max_bytes: int = DEFAULT_MAX_BYTES,
        keep_percentile: float = DEFAULT_KEEP_PERCENTILE,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        rng: random.Random | None = None,
    ) -> None:
        if max_traces < 1 or max_pending < 1 or max_spans_per_trace < 1:
            raise ValueError("span store bounds must be positive")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1]: {sample_rate!r}")
        if not 0.0 < keep_percentile <= 1.0:
            raise ValueError(
                f"keep_percentile must be in (0, 1]: {keep_percentile!r}"
            )
        self.max_traces = max_traces
        self.max_pending = max_pending
        self.max_spans_per_trace = max_spans_per_trace
        self.max_bytes = max_bytes
        self.keep_percentile = keep_percentile
        self.sample_rate = sample_rate
        # Sampling only shapes *which boring traces survive*; a seeded
        # rng makes tests deterministic, the default is fine in prod.
        self._rng = rng if rng is not None else random.Random()  # repro: disable=no-direct-sleep-random — sampling noise source, injectable for tests
        self._pending: OrderedDict[str, _Pending] = OrderedDict()
        self._retained: OrderedDict[str, TraceRecord] = OrderedDict()
        self._durations = QuantileSketch(name="trace.duration_s")
        self._retained_bytes = 0
        self._lock = threading.Lock()
        # visibility counters (read by /metrics consumers via stats())
        self.completed = 0
        self.kept = 0
        self.kept_flagged = 0
        self.kept_slow = 0
        self.kept_sampled = 0
        self.dropped = 0
        self.evicted = 0
        self.pending_evicted = 0

    # -- ingest path ---------------------------------------------------

    def ingest(self, span: Span) -> None:
        """File one finished span under its (pending) trace.

        A span that finishes after its trace completed and was retained
        (``http.send``: the trace completes before the response bytes
        leave) joins the retained record directly.
        """
        with self._lock:
            pending = self._pending.get(span.trace_id)
            if pending is None:
                record = self._retained.get(span.trace_id)
                if record is not None:
                    self._extend_locked(record, [span])
                    self._enforce_bounds_locked()
                    return
                while len(self._pending) >= self.max_pending:
                    self._pending.popitem(last=False)
                    self.pending_evicted += 1
                pending = self._pending[span.trace_id] = _Pending()
            if len(pending.spans) >= self.max_spans_per_trace:
                pending.dropped_spans += 1
                return
            pending.spans.append(span)
            pending.byte_size += _span_cost(span)

    def mark(self, trace_id: str, flag: str) -> None:
        """Flag a pending trace (``fault``/``shed``/``deadline``) so
        completion always retains it."""
        with self._lock:
            pending = self._pending.get(trace_id)
            if pending is None:
                # marked before any span finished (or after completion):
                # open the pending slot so the flag is not lost
                while len(self._pending) >= self.max_pending:
                    self._pending.popitem(last=False)
                    self.pending_evicted += 1
                pending = self._pending[trace_id] = _Pending()
            pending.flags.add(flag)

    def complete(self, trace_id: str, *, http_status: int | None = None) -> bool:
        """Finalize a trace and run the tail-sampling decision.

        ``http_status``: the response status the server sent; 503 marks
        ``shed``, 504 ``deadline``, any other >= 400 ``fault``.  Returns
        True when the trace was retained.  Completing an id that is
        already retained (a retried attempt reusing the client's trace
        id) merges the new spans and flags into the existing record.
        """
        with self._lock:
            pending = self._pending.pop(trace_id, None)
            existing = self._retained.get(trace_id)
            if pending is None:
                if existing is None:
                    return False
                # a retry whose spans all joined the record on ingest:
                # only its status and the completion itself are new
                pending = _Pending()
            if http_status is not None and http_status >= 400:
                pending.flags.add(_FLAG_OF_CLASS[fault_class_of_status(http_status)])
            self.completed += 1
            if existing is not None:
                # retry reusing the trace id: merge into the record
                self._merge_locked(existing, pending)
                self._enforce_bounds_locked()
                return True

            start = min((s.start for s in pending.spans), default=0.0)
            end = max((s.end for s in pending.spans), default=0.0)
            duration = end - start
            threshold = self._durations.quantile(self.keep_percentile)
            seen_enough = self._durations.count >= 20
            self._durations.record(duration)

            if pending.flags:
                self.kept_flagged += 1
            elif seen_enough and duration >= threshold and duration > 0.0:
                self.kept_slow += 1
            elif not seen_enough or self._rng.random() < self.sample_rate:
                # cold start keeps everything: with no duration history
                # there is no "boring" yet
                self.kept_sampled += 1
            else:
                self.dropped += 1
                return False
            self.kept += 1
            record = TraceRecord(
                trace_id, pending.spans, pending.flags, pending.dropped_spans
            )
            self._retained[trace_id] = record
            self._retained_bytes += record.byte_size
            self._enforce_bounds_locked()
            return trace_id in self._retained

    def _merge_locked(self, record: TraceRecord, pending: _Pending) -> None:
        self._extend_locked(record, pending.spans)
        record.dropped_spans += pending.dropped_spans
        record.flags |= pending.flags
        record.completions += 1

    def _extend_locked(self, record: TraceRecord, spans: list[Span]) -> None:
        room = self.max_spans_per_trace - len(record.spans)
        added = spans[: max(room, 0)]
        record.spans.extend(added)
        record.dropped_spans += len(spans) - len(added)
        grown = sum(_span_cost(s) for s in added)
        record.byte_size += grown
        self._retained_bytes += grown
        if added:
            record.start = min(record.start, min(s.start for s in added))
            record.end = max(record.end, max(s.end for s in added))

    def _enforce_bounds_locked(self) -> None:
        while len(self._retained) > self.max_traces or (
            self._retained_bytes > self.max_bytes and self._retained
        ):
            victim = self._pick_victim_locked()
            record = self._retained.pop(victim)
            self._retained_bytes -= record.byte_size
            self.evicted += 1

    def _pick_victim_locked(self) -> str:
        # oldest boring trace first; flagged records go only when the
        # whole ring is flagged
        for trace_id, record in self._retained.items():
            if not record.flags:
                return trace_id
        return next(iter(self._retained))

    # -- query path ----------------------------------------------------

    def get(self, trace_id: str) -> dict | None:
        """The span tree of a retained trace, or None."""
        with self._lock:
            record = self._retained.get(trace_id)
        return record.tree() if record is not None else None

    def slowest(self, n: int = 20) -> list[dict]:
        """Summaries of the ``n`` slowest retained traces."""
        with self._lock:
            records = list(self._retained.values())
        records.sort(key=lambda r: r.duration_s, reverse=True)
        return [record.summary() for record in records[: max(n, 0)]]

    def trace_ids(self) -> list[str]:
        """Retained trace ids, oldest first."""
        with self._lock:
            return list(self._retained)

    def flagged_ids(self, flags: Iterable[str] | None = None) -> list[str]:
        """Retained ids carrying any of ``flags`` (default: any flag)."""
        wanted = set(flags) if flags is not None else None
        with self._lock:
            return [
                trace_id
                for trace_id, record in self._retained.items()
                if (record.flags if wanted is None else record.flags & wanted)
            ]

    def stats(self) -> dict:
        """Retention/eviction counters and current occupancy."""
        with self._lock:
            return {
                "retained": len(self._retained),
                "retained_bytes": self._retained_bytes,
                "pending": len(self._pending),
                "completed": self.completed,
                "kept": self.kept,
                "kept_flagged": self.kept_flagged,
                "kept_slow": self.kept_slow,
                "kept_sampled": self.kept_sampled,
                "dropped": self.dropped,
                "evicted": self.evicted,
                "pending_evicted": self.pending_evicted,
                "max_traces": self.max_traces,
                "max_bytes": self.max_bytes,
            }

    @property
    def size_bytes(self) -> int:
        with self._lock:
            return self._retained_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._retained)
