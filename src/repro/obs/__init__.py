"""``repro.obs`` — tracing + metrics threaded through the request path.

The paper's whole argument is about *where* time goes (parse vs.
dispatch vs. execute vs. serialize); this package is the measurement
substrate that makes those phases visible end-to-end:

* :mod:`repro.obs.registry` — thread-safe counters/gauges/sketches
  behind one :class:`MetricsRegistry`, the one a server counts into;
* :mod:`repro.obs.trace` — trace ids minted client-side, propagated as
  an HTTP header plus a SOAP header entry (surviving SPI packing), and
  recorded server-side as per-phase spans;
* :mod:`repro.obs.sketch` — mergeable log-bucketed quantile sketches
  (DDSketch-style, ~1% relative error) behind every latency series;
* :mod:`repro.obs.rollup` — per-(service, operation) latency/error
  EWMAs + in-flight gauges, the server's per-target rows in ``/metrics``;
* :mod:`repro.obs.store` — bounded queryable span store with
  tail-based sampling, behind ``GET /trace/<id>`` and ``GET /traces``;
* :mod:`repro.obs.timeline` — one retained trace as a text waterfall,
  behind ``GET /trace/<id>?format=text``;
* :mod:`repro.obs.prometheus` — the text exposition format behind
  ``GET /metrics?format=prometheus``.

Every server owns a registry.  Attach one :class:`Observability` to a
server (and optionally share its tracer with a client proxy) to add the
spans, the span store, the per-target rollups and the admin routes; the
server then counts into ``observability.registry``.
"""

from repro.obs.registry import Counter, Gauge, MetricsRegistry
from repro.obs.rollup import Ewma, ObsRollup, rollup_key
from repro.obs.sketch import QuantileSketch
from repro.obs.store import (
    FLAG_DEADLINE,
    FLAG_FAULT,
    FLAG_SHED,
    SpanStore,
    TraceRecord,
)
from repro.obs.trace import (
    NULL_SPAN,
    OBS_NS,
    Observability,
    Span,
    TRACE_HEADER_TAG,
    TRACE_HTTP_HEADER,
    TRACE_ID_ATTR,
    Tracer,
    new_span_id,
    new_trace_id,
)
from repro.obs.prometheus import render_prometheus, sanitize_name
from repro.obs.timeline import phase_breakdown, render_timeline

__all__ = [
    "Counter",
    "Ewma",
    "FLAG_DEADLINE",
    "FLAG_FAULT",
    "FLAG_SHED",
    "Gauge",
    "MetricsRegistry",
    "NULL_SPAN",
    "OBS_NS",
    "ObsRollup",
    "Observability",
    "QuantileSketch",
    "Span",
    "SpanStore",
    "TRACE_HEADER_TAG",
    "TRACE_HTTP_HEADER",
    "TRACE_ID_ATTR",
    "TraceRecord",
    "Tracer",
    "new_span_id",
    "new_trace_id",
    "phase_breakdown",
    "render_prometheus",
    "render_timeline",
    "rollup_key",
    "sanitize_name",
]
