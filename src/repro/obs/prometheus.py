"""Prometheus text exposition (version 0.0.4) for the metrics registry.

Renders a :class:`~repro.obs.registry.MetricsRegistry` snapshot in the
``text/plain; version=0.0.4`` format Prometheus scrapes, so a repro
server can sit behind a stock Prometheus without an exporter sidecar:

* counters  → ``# TYPE name counter`` + the cumulative value
* gauges    → ``# TYPE name gauge`` + the current value
* quantile sketches → ``# TYPE name summary``: one
  ``name{quantile="0.5"}``-style line per pre-rendered quantile, plus
  ``name_sum`` and ``name_count`` (summaries are the Prometheus type
  for client-computed quantiles, which is exactly what a sketch is)
* rollups → per-target labeled series
  ``repro_rollup_<metric>{service="...",operation="..."}`` for the
  latency EWMA, error rate, per-class error rates and in-flight gauge
  (label values escaped per the exposition spec)

Dotted repro metric names (``http.requests``) become legal Prometheus
names by mapping every character outside ``[a-zA-Z0-9_]`` to ``_``.
Everything is computed from the registry's public ``snapshot()``.
"""

from __future__ import annotations

import re

from repro.obs.registry import MetricsRegistry

#: rollup snapshot field -> (exposition metric suffix, TYPE)
_ROLLUP_SERIES = (
    ("latency_ewma_s", "gauge"),
    ("latency_p50_s", "gauge"),
    ("latency_p99_s", "gauge"),
    ("error_rate", "gauge"),
    ("in_flight", "gauge"),
    ("calls", "counter"),
    ("faults", "counter"),
)

_NAME_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_]")

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def sanitize_name(name: str) -> str:
    """A legal Prometheus metric name for a dotted repro metric name."""
    name = _NAME_SANITIZE_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _format_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def escape_label_value(value: str) -> str:
    """A label value escaped per the exposition spec (backslash, quote,
    newline)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def render_prometheus(registry: MetricsRegistry) -> str:
    """The whole registry in Prometheus text exposition format."""
    snapshot = registry.snapshot()
    lines: list[str] = []
    for name, value in snapshot["counters"].items():
        metric = sanitize_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name, value in snapshot["gauges"].items():
        metric = sanitize_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    for name, sketch in snapshot["sketches"].items():
        metric = sanitize_name(name)
        lines.append(f"# TYPE {metric} summary")
        for key, value in sketch["quantiles"].items():
            q = int(key[1:]) / 100.0
            lines.append(f'{metric}{{quantile="{q:g}"}} {repr(float(value))}')
        lines.append(f"{metric}_sum {repr(float(sketch['sum']))}")
        lines.append(f"{metric}_count {sketch['count']}")
    rollups = snapshot.get("rollups", {})
    if rollups:
        for suffix, kind in _ROLLUP_SERIES:
            metric = f"repro_rollup_{sanitize_name(suffix)}"
            lines.append(f"# TYPE {metric} {kind}")
            for doc in rollups.values():
                labels = (
                    f'service="{escape_label_value(doc["service"])}",'
                    f'operation="{escape_label_value(doc["operation"])}"'
                )
                lines.append(
                    f"{metric}{{{labels}}} {_format_value(float(doc[suffix]))}"
                )
        metric = "repro_rollup_error_rate_by_class"
        lines.append(f"# TYPE {metric} gauge")
        for doc in rollups.values():
            for klass, rate in doc["error_rate_by_class"].items():
                labels = (
                    f'service="{escape_label_value(doc["service"])}",'
                    f'operation="{escape_label_value(doc["operation"])}",'
                    f'class="{klass}"'
                )
                lines.append(f"{metric}{{{labels}}} {_format_value(float(rate))}")
    return "\n".join(lines) + "\n"
