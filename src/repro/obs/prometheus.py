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
* the per-operation instruments ``operation.<namespace>#<operation>.seconds``
  and ``.faults`` → one labelled family each,
  ``repro_operation_seconds{service="...",operation="..."}`` (a summary)
  and ``repro_operation_faults{...}`` (a counter), label values escaped
  per the exposition spec

Dotted repro metric names (``http.requests``) become legal Prometheus
names by mapping every character outside ``[a-zA-Z0-9_]`` to ``_``.
Everything is computed from the registry's public ``snapshot()``.
"""

from __future__ import annotations

import re

from repro.obs.registry import MetricsRegistry

#: per-operation instrument names: ``operation.<namespace>#<operation>.<kind>``
_OPERATION_PREFIX = "operation."

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


def _operation_labels(name: str) -> str | None:
    """``service="…",operation="…"`` for a per-operation instrument
    (``operation.<namespace>#<operation>.<kind>``), else None.  An
    operation is an NCName, but a namespace may hold ``#`` or ``.``."""
    if not name.startswith(_OPERATION_PREFIX):
        return None
    target = name[len(_OPERATION_PREFIX) : name.rindex(".")]
    service, _, operation = target.rpartition("#")
    return (
        f'service="{escape_label_value(service)}",'
        f'operation="{escape_label_value(operation)}"'
    )


def _samples(metric: str, value: float | dict, labels: str = "") -> list[str]:
    """One instrument's sample lines: its value, or for a sketch a line
    per quantile, then ``_sum`` and ``_count``."""
    label_set = f"{{{labels}}}" if labels else ""
    if not isinstance(value, dict):
        return [f"{metric}{label_set} {_format_value(value)}"]
    quantile_labels = labels + "," if labels else ""
    lines = []
    for key, quantile_value in value["quantiles"].items():
        q = int(key[1:]) / 100.0
        lines.append(
            f'{metric}{{{quantile_labels}quantile="{q:g}"}} {repr(float(quantile_value))}'
        )
    lines.append(f"{metric}_sum{label_set} {repr(float(value['sum']))}")
    lines.append(f"{metric}_count{label_set} {value['count']}")
    return lines


def render_prometheus(registry: MetricsRegistry) -> str:
    """The whole registry in Prometheus text exposition format."""
    snapshot = registry.snapshot()
    lines: list[str] = []
    # the per-operation instruments, held back to render one family per kind
    families: dict[str, list[str]] = {}
    for group, kind in (
        ("counters", "counter"), ("gauges", "gauge"), ("sketches", "summary")
    ):
        for name, value in snapshot[group].items():
            labels = _operation_labels(name)
            if labels is None:
                metric = sanitize_name(name)
                lines.append(f"# TYPE {metric} {kind}")
                lines += _samples(metric, value)
            else:
                metric = "repro_operation_" + name.rpartition(".")[2]
                family = families.setdefault(metric, [f"# TYPE {metric} {kind}"])
                family += _samples(metric, value, labels)
    for family in families.values():
        lines += family
    return "\n".join(lines) + "\n"
