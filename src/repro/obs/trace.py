"""Trace-context propagation and per-phase spans.

One *trace* is one logical client operation — a ``proxy.call`` or a
packed ``PackBatch.flush`` — identified by a random 64-bit hex id.  The
client mints the id and sends it twice: as the ``X-Repro-Trace-Id``
HTTP header (cheap for the HTTP layer to read before SOAP parsing) and
as a ``mustUnderstand="0"`` SOAP header entry, so the id survives any
intermediary that re-wraps the body — in particular SPI packing, where
M logical requests ride one ``Parallel_Method`` entry.

A *span* is one timed phase of a trace (``http.parse``,
``security.verify``, ``soap.parse``, ``spi.unpack``, ``execute`` per
entry, ``spi.pack``, ``soap.serialize``, ``http.send``, and
``client.call`` on the client).  A finished span's duration feeds the
``span.<name>.seconds`` quantile sketch in the attached
:class:`~repro.obs.registry.MetricsRegistry` (per-phase latency under
``/metrics``), and the span itself goes to the one place spans are kept:
the attached :class:`~repro.obs.store.SpanStore`, when there is one.

Hot-path contract: when no trace is active (observability disabled) the
module-level :func:`span` helper returns the shared :data:`NULL_SPAN`
singleton — no object allocation, no clock read — so an obs-disabled
server runs the exact seed code path plus one attribute lookup.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import TYPE_CHECKING

from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.obs.store import SpanStore

# Wire constants for propagation.
TRACE_HTTP_HEADER = "X-Repro-Trace-Id"
OBS_NS = "urn:repro:obs"
TRACE_HEADER_TAG = f"{{{OBS_NS}}}Trace"
TRACE_ID_ATTR = "traceId"


def new_trace_id() -> str:
    """A fresh 64-bit hex trace id."""
    return os.urandom(8).hex()


# Span ids only need uniqueness, not unpredictability — and every Span
# construction mints one, which puts id generation on each timed phase
# of the request path.  os.urandom is a getrandom(2) syscall per call
# (microseconds); a counter is one GIL-atomic next() (nanoseconds).
# Seeded randomly once so ids from distinct processes rarely collide in
# merged trace exports.
_span_ids = itertools.count(int.from_bytes(os.urandom(4), "big"))


def new_span_id() -> str:
    """A fresh 32-bit hex span id (unique within a trace)."""
    return f"{next(_span_ids) & 0xFFFFFFFF:08x}"


class Span:
    """One finished (or in-flight) timed phase of a trace.

    ``span_id``/``parent_id`` give spans tree structure: nested
    ``with span(...)`` blocks on one thread parent automatically, and
    stage workers inherit the protocol thread's span as parent through
    the captured context (:func:`current` / :func:`span_in`) — which is
    how a packed request renders as one ``server.handle`` root with one
    ``execute`` child per pack entry.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "detail", "start", "end")

    def __init__(
        self,
        trace_id: str,
        name: str,
        detail: str = "",
        *,
        parent_id: str = "",
    ) -> None:
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.name = name
        self.detail = detail
        self.start = 0.0
        self.end = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        """JSON-friendly span summary."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "detail": self.detail,
            "start_s": self.start,
            "duration_s": self.duration_s,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, trace={self.trace_id}, {self.duration_s * 1e3:.3f} ms)"


class _SpanHandle:
    """Context manager that times one span and hands it to the tracer.

    Entering pushes the span onto the thread's span stack (so spans
    opened inside the ``with`` body become its children) and adopts the
    current stack top as parent when the span has none yet.
    """

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        span = self._span
        stack = getattr(_active, "stack", None)
        if stack is None:
            stack = _active.stack = []
        if stack and not span.parent_id and stack[-1].trace_id == span.trace_id:
            span.parent_id = stack[-1].span_id
        stack.append(span)
        span.start = self._tracer._clock()
        return span

    def __exit__(self, *exc_info: object) -> None:
        self._span.end = self._tracer._clock()
        stack = getattr(_active, "stack", None)
        if stack and stack[-1] is self._span:
            stack.pop()
        self._tracer._finish(self._span)


class _NullSpan(_SpanHandle):
    """Shared do-nothing span guard for the obs-disabled path: a handle
    with no tracer, so :func:`span`'s one return type holds both."""

    __slots__ = ()

    def __init__(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":  # type: ignore[override]
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        # swallow `span.detail = ...` style writes inside `with` blocks
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Times spans and hands each finished one on; thread-safe.

    A finished span feeds its ``span.<name>.seconds`` sketch in
    ``registry`` and is ingested by ``store``; the tracer keeps nothing.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        clock=time.perf_counter,
        store: "SpanStore | None" = None,
    ) -> None:
        self.registry = registry
        self._clock = clock
        # span name -> its registry sketch, to skip the registry lock (and
        # the f-string) on every finished span after the first.  Bounded:
        # every span name in src is a literal at its call site (a fixed
        # taxonomy); request data goes in ``detail``, never in the name.
        self._span_sketches: dict[str, object] = {}  # repro: disable=request-keyed-retention
        self.store = store

    # -- recording -----------------------------------------------------

    def span(
        self, name: str, trace_id: str, detail: str = "", *, parent_id: str = ""
    ) -> _SpanHandle:
        """A context manager timing one phase of ``trace_id``.

        Without an explicit ``parent_id`` the span adopts the thread's
        innermost open span of the same trace as parent.
        """
        return _SpanHandle(self, Span(trace_id, name, detail, parent_id=parent_id))

    def record_span(
        self,
        name: str,
        trace_id: str,
        start: float,
        end: float,
        detail: str = "",
        *,
        parent_id: str = "",
    ) -> Span:
        """Record a phase timed by the caller (e.g. before the trace id
        was known — the HTTP parse phase discovers the id)."""
        span = Span(trace_id, name, detail, parent_id=parent_id)
        span.start = start
        span.end = end
        self._finish(span)
        return span

    def _finish(self, span: Span) -> None:
        if self.registry is not None:
            # quantile sketches, not fixed buckets: p99 of any phase is
            # answerable to ~1% relative error regardless of magnitude
            sketch = self._span_sketches.get(span.name)
            if sketch is None:
                sketch = self.registry.sketch(f"span.{span.name}.seconds")
                self._span_sketches[span.name] = sketch
            sketch.record(span.duration_s)
        store = self.store
        if store is not None:
            store.ingest(span)


# -- ambient per-thread trace context ----------------------------------

_active = threading.local()


def activate(tracer: Tracer, trace_id: str) -> None:
    """Bind a (tracer, trace id) to the current thread; the protocol
    thread does this once the HTTP request head names the trace."""
    _active.tracer = tracer
    _active.trace_id = trace_id
    _active.stack = []


def deactivate() -> None:
    """Clear the current thread's trace binding."""
    _active.tracer = None
    _active.trace_id = None
    _active.stack = []


def current() -> tuple[Tracer, str, str] | None:
    """The active (tracer, trace id, parent span id), or None — capture
    this before hopping threads (the staged server hands it to stage
    workers, whose spans then parent under the capturing span)."""
    tracer = getattr(_active, "tracer", None)
    if tracer is None:
        return None
    stack = getattr(_active, "stack", None)
    parent_id = stack[-1].span_id if stack else ""
    return tracer, _active.trace_id, parent_id


def current_trace_id() -> str | None:
    """The active trace id, or None."""
    tracer = getattr(_active, "tracer", None)
    return _active.trace_id if tracer is not None else None


def span(name: str, detail: str = "") -> _SpanHandle:
    """A span on the thread's active trace — or :data:`NULL_SPAN` when
    tracing is off (no allocation, no clock read)."""
    tracer = getattr(_active, "tracer", None)
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, _active.trace_id, detail)


def span_in(context: tuple | None, name: str, detail: str = "") -> _SpanHandle:
    """Like :func:`span` but against the context :func:`current`
    captured — for worker threads that inherited it from the protocol
    thread."""
    if context is None:
        return NULL_SPAN
    tracer, trace_id, parent_id = context
    return tracer.span(name, trace_id, detail, parent_id=parent_id)


class Observability:
    """The bundle a server (or a whole testbed) threads everywhere:
    one registry, one tracer feeding it (and ``span_store``, the one
    place finished spans are kept, when given), one start timestamp."""

    def __init__(self, *, span_store: "SpanStore | None" = None) -> None:
        self.registry = MetricsRegistry()
        self.store = span_store
        self.tracer = Tracer(self.registry, store=span_store)
        # Monotonic anchor: uptime is an interval, and wall clocks jump.
        self.started_at = time.monotonic()

    def uptime_s(self) -> float:
        """Seconds since construction, to the millisecond."""
        return round(time.monotonic() - self.started_at, 3)

    def metrics_snapshot(self) -> dict:
        """The ``/metrics`` JSON document."""
        doc = {"uptime_s": self.uptime_s(), **self.registry.snapshot()}
        if self.store is not None:
            doc["span_store"] = self.store.stats()
        return doc
