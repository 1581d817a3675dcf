"""Golden-file test: the whole Prometheus exposition, byte for byte.

A deterministically-populated registry (a fixed observation stream)
must render exactly ``golden/metrics.prom``.  Any
formatting drift — bucket ordering, float rendering, label escaping,
a renamed series — shows up as a readable diff against the committed
file instead of a scrape that silently stops parsing.

Regenerate after an *intentional* format change by running this file's
``build_registry`` + ``render_prometheus`` and committing the output.
"""

from pathlib import Path

from repro.obs import MetricsRegistry
from repro.obs.prometheus import render_prometheus

GOLDEN = Path(__file__).parent / "golden" / "metrics.prom"


#: a namespace holding a quote and a backslash, so label escaping is
#: pinned, and a ``#`` and a ``.``, so the name splits at its last ``#``
ESCAPED_NS = 'urn:repro:"odd"\\echo#v1.0'


def build_registry() -> MetricsRegistry:
    """One instrument of every kind, fed a fixed observation stream."""
    registry = MetricsRegistry()
    registry.counter("http.requests").inc(3)
    registry.counter("soap.reader_fallbacks").inc()
    registry.gauge("stage.application.queue_depth").set(2)
    registry.sketch("pack.degree").record(8)
    sketch = registry.sketch("span.execute.seconds")
    for ms in range(1, 101):
        sketch.record(ms / 1000.0)
    # one deployed operation's pair, as ServiceContainer.deploy binds it
    seconds = registry.sketch(f"operation.{ESCAPED_NS}#echo.seconds")
    seconds.record(0.100)
    seconds.record(0.300)
    registry.counter(f"operation.{ESCAPED_NS}#echo.faults").inc()
    return registry


def test_exposition_matches_golden_file():
    assert render_prometheus(build_registry()) == GOLDEN.read_text()


def test_golden_file_spot_checks():
    """Independent anchors so a wholesale regen cannot hide a regression."""
    text = GOLDEN.read_text()
    # a per-operation pair renders as two labelled families, the
    # namespace's quote and backslash escaped
    labels = 'service="urn:repro:\\"odd\\"\\\\echo#v1.0",operation="echo"'
    assert "# TYPE repro_operation_seconds summary" in text
    assert f"repro_operation_seconds_count{{{labels}}} 2" in text
    assert f"repro_operation_seconds_sum{{{labels}}} 0.4" in text
    assert f"repro_operation_faults{{{labels}}} 1" in text
    assert "operation_urn" not in text  # no unlabelled series for it
    # sketches expose as summaries with a _sum/_count pair
    assert "# TYPE span_execute_seconds summary" in text
    assert "span_execute_seconds_count 100" in text
    # pack degree is a sketch too: one observation, its own sum
    assert "pack_degree_count 1" in text
    assert "pack_degree_sum 8.0" in text
