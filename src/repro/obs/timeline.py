"""Text waterfall rendering of one trace's spans.

Debugging a packed request means answering "where did the time go for
*this* message": how long the protocol thread sat in parse, how the 32
execute spans overlapped on the application stage, whether serialize
dwarfed everything (Figure 7's regime).  ``render_timeline`` draws that
as a fixed-width waterfall — one line per span, bars positioned on a
shared clock that starts at the trace's earliest span::

    trace 1f6c2c937d0a44be  9 spans  total 4.812 ms
      client.call      0.000 |########################################| 4.812
      http.parse       0.310 |--##------------------------------------| 0.241
      soap.parse       0.590 |-----###--------------------------------| 0.366
      ...

Offsets and durations are milliseconds.  Spans render in start order,
so concurrent stage executions appear as a block of overlapping bars.
"""

from __future__ import annotations

from repro.obs.trace import Span, Tracer

BAR_WIDTH = 40


def render_timeline(
    tracer: Tracer, trace_id: str | None = None, *, width: int = BAR_WIDTH
) -> str:
    """Waterfall for one trace (default: the most recently started)."""
    if trace_id is None:
        ids = tracer.trace_ids()
        if not ids:
            return "(no traces recorded)"
        trace_id = ids[-1]
    return render_spans(trace_id, tracer.spans(trace_id), width=width)


def render_spans(trace_id: str, spans: list[Span], *, width: int = BAR_WIDTH) -> str:
    """Waterfall over an explicit span list (see :func:`render_timeline`)."""
    if not spans:
        return f"trace {trace_id}  (no spans recorded)"
    spans = sorted(spans, key=lambda s: (s.start, s.end))
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    total = max(t1 - t0, 1e-9)
    name_width = max(len(_label(s)) for s in spans)

    lines = [f"trace {trace_id}  {len(spans)} spans  total {total * 1e3:.3f} ms"]
    for s in spans:
        begin = int((s.start - t0) / total * width)
        length = max(1, round(s.duration_s / total * width))
        begin = min(begin, width - 1)
        length = min(length, width - begin)
        bar = "-" * begin + "#" * length + "-" * (width - begin - length)
        lines.append(
            f"  {_label(s):<{name_width}}  {(s.start - t0) * 1e3:>9.3f} "
            f"|{bar}| {s.duration_s * 1e3:.3f}"
        )
    return "\n".join(lines)


def render_all(tracer: Tracer, *, width: int = BAR_WIDTH) -> str:
    """Every recorded trace's waterfall, blank-line separated."""
    ids = tracer.trace_ids()
    if not ids:
        return "(no traces recorded)"
    return "\n\n".join(
        render_spans(trace_id, tracer.spans(trace_id), width=width) for trace_id in ids
    )


def phase_breakdown(spans: list[Span]) -> dict[str, dict]:
    """Aggregate spans by name: count, total/mean milliseconds.

    Turns one trace's spans into the per-phase cost table the paper's
    argument is about.
    """
    phases: dict[str, dict] = {}
    for s in spans:
        entry = phases.setdefault(s.name, {"count": 0, "total_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += s.duration_s * 1e3
    for entry in phases.values():
        entry["total_ms"] = round(entry["total_ms"], 4)
        entry["mean_ms"] = round(entry["total_ms"] / entry["count"], 4)
    return phases


def _label(span: Span) -> str:
    return f"{span.name}[{span.detail}]" if span.detail else span.name
