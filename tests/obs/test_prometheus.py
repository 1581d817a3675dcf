"""Prometheus text exposition: renderer unit tests + the admin route."""

from repro.bench.workloads import echo_testbed, make_invoker, echo_calls
from repro.http.connection import HttpConnection
from repro.http.message import Headers, HttpRequest
from repro.obs import MetricsRegistry, Observability
from repro.obs.prometheus import CONTENT_TYPE, render_prometheus, sanitize_name
from repro.resilience.policy import CallPolicy


class TestSanitizeName:
    def test_dots_become_underscores(self):
        assert sanitize_name("http.requests") == "http_requests"

    def test_span_names_with_dashes(self):
        assert sanitize_name("span.http-send.seconds") == "span_http_send_seconds"

    def test_leading_digit_is_prefixed(self):
        assert sanitize_name("95th.latency") == "_95th_latency"


class TestRenderFormat:
    def test_counter_exposition(self):
        registry = MetricsRegistry()
        registry.counter("http.requests").inc(3)
        text = render_prometheus(registry)
        assert "# TYPE http_requests counter\nhttp_requests 3" in text

    def test_gauge_exposition(self):
        registry = MetricsRegistry()
        registry.gauge("queue.depth").set(2.5)
        text = render_prometheus(registry)
        assert "# TYPE queue_depth gauge\nqueue_depth 2.5" in text

    def test_empty_registry_renders_to_empty_document(self):
        assert render_prometheus(MetricsRegistry()) == "\n"

    def test_every_line_is_wellformed(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        registry.gauge("c.d").set(1)
        registry.sketch("e.f").record(1)
        for line in render_prometheus(registry).strip().split("\n"):
            assert line.startswith("# TYPE ") or " " in line


class TestAdminRoute:
    def test_metrics_format_prometheus(self):
        obs = Observability()
        with echo_testbed(profile="inproc", observability=obs) as bed:
            proxy = bed.make_proxy()
            invoker = make_invoker("our-approach", proxy)
            invoker.invoke_all(echo_calls(4, 10), CallPolicy(timeout=60))
            proxy.close()
            with HttpConnection(bed.transport, bed.address) as conn:
                response = conn.request(
                    HttpRequest(
                        "GET", "/metrics?format=prometheus", Headers({"Host": "t"})
                    )
                )
        assert response.status == 200
        assert response.headers.get("Content-Type") == CONTENT_TYPE
        text = response.body.decode("utf-8")
        assert "# TYPE http_requests counter" in text
        # span latencies are summaries (sketch quantiles) now
        assert "# TYPE span_execute_seconds summary" in text
        assert 'span_execute_seconds{quantile="0.99"}' in text
        assert "span_execute_seconds_count 4" in text
        # per-target rollup series carry service/operation labels
        assert (
            'repro_rollup_calls{service="urn:repro:echo",operation="echo"} 4'
            in text
        )

    def test_metrics_without_format_still_json(self):
        import json

        obs = Observability()
        with echo_testbed(profile="inproc", observability=obs) as bed:
            with HttpConnection(bed.transport, bed.address) as conn:
                response = conn.request(
                    HttpRequest("GET", "/metrics", Headers({"Host": "t"}))
                )
        assert response.headers.get("Content-Type") == "application/json"
        assert "counters" in json.loads(response.body)
