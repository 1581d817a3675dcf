"""Golden-file test: the whole Prometheus exposition, byte for byte.

A deterministically-populated registry (injected rollup clock, fixed
observation stream) must render exactly ``golden/metrics.prom``.  Any
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


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def build_registry() -> MetricsRegistry:
    """One instrument of every kind, fed a fixed observation stream."""
    clock = FakeClock()
    registry = MetricsRegistry(clock=clock)
    registry.counter("http.requests").inc(3)
    registry.counter("soap.reader_fallbacks").inc()
    registry.gauge("stage.application.queue_depth").set(2)
    registry.sketch("pack.degree").record(8)
    sketch = registry.sketch("span.execute.seconds")
    for ms in range(1, 101):
        sketch.record(ms / 1000.0)
    rollup = registry.rollup("urn:repro:echo", "echo")
    rollup.begin()
    rollup.observe(0.100)
    clock.now += 30.0  # exactly one default half-life
    rollup.observe(0.300, "shed")
    return registry


def test_exposition_matches_golden_file():
    assert render_prometheus(build_registry()) == GOLDEN.read_text()


def test_golden_file_spot_checks():
    """Independent anchors so a wholesale regen cannot hide a regression."""
    text = GOLDEN.read_text()
    # EWMA moved exactly halfway after one half-life
    assert (
        'repro_rollup_latency_ewma_s{service="urn:repro:echo",operation="echo"} 0.2'
        in text
    )
    # one success + one shed = 50% error rate, all of it retryable
    assert 'operation="echo"} 0.5' in text
    assert 'class="timeout"} 0' in text
    # sketches expose as summaries with a _sum/_count pair
    assert "# TYPE span_execute_seconds summary" in text
    assert "span_execute_seconds_count 100" in text
    # pack degree is a sketch too: one observation, its own sum
    assert "pack_degree_count 1" in text
    assert "pack_degree_sum 8.0" in text
