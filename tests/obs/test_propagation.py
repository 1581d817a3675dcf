"""Integration: trace propagation, admin endpoints, and the obs-off
byte-identical guarantee, end to end over real servers."""

import json

import pytest

from repro.bench.workloads import echo_calls, echo_testbed, make_invoker
from repro.http.connection import HttpConnection
from repro.http.message import Headers, HttpRequest
from repro.obs import Observability, render_timeline
from repro.obs.trace import TRACE_HEADER_TAG, TRACE_ID_ATTR
from repro.soap.envelope import Envelope
from repro.xmlcore.tree import Element
from repro.resilience.policy import CallPolicy


def packed_round_trip(testbed, m=32, payload=10):
    proxy = testbed.make_proxy()
    invoker = make_invoker("our-approach", proxy)
    results = invoker.invoke_all(echo_calls(m, payload), CallPolicy(timeout=60))
    proxy.close()
    return proxy, results


class TestTracePropagation:
    @pytest.mark.parametrize("architecture", ["staged", "common"])
    def test_one_trace_covers_client_and_all_server_phases(self, architecture):
        obs = Observability()
        with echo_testbed(
            profile="inproc", architecture=architecture, observability=obs
        ) as bed:
            proxy, results = packed_round_trip(bed, m=32)
        assert len(results) == 32

        # the id the client minted is the id the server recorded under
        trace_id = proxy.last_trace_id
        assert trace_id is not None
        spans = obs.tracer.spans(trace_id)
        names = [s.name for s in spans]

        # client span and the per-phase server spans share the trace
        assert "client.call" in names
        for phase in ("http.parse", "soap.parse", "spi.unpack", "spi.pack",
                      "soap.serialize", "http.send"):
            assert phase in names, f"missing {phase} in {sorted(set(names))}"
        # one execute span per packed entry — the id survived packing
        assert names.count("execute") == 32

        # every span of the trace is renderable as one waterfall
        timeline = render_timeline(obs.tracer, trace_id)
        assert f"trace {trace_id}" in timeline
        assert timeline.count("execute[echo]") == 32

    def test_client_call_span_encloses_server_spans(self):
        obs = Observability()
        with echo_testbed(profile="inproc", observability=obs) as bed:
            proxy, _ = packed_round_trip(bed, m=4)
        spans = obs.tracer.spans(proxy.last_trace_id)
        client = next(s for s in spans if s.name == "client.call")
        for s in spans:
            if s.name in ("soap.parse", "execute", "soap.serialize"):
                assert client.start <= s.start and s.end <= client.end

    def test_soap_header_recovers_trace_when_http_header_is_stripped(self):
        """The SOAP-carried id re-homes server spans onto the client's
        trace even when the HTTP header never arrives."""
        obs = Observability()
        carried = "deadbeefcafef00d"
        with echo_testbed(profile="inproc", observability=obs) as bed:
            proxy = bed.make_proxy(tracer=None)  # no HTTP header, no client span
            proxy.extra_headers = [Element(TRACE_HEADER_TAG, {TRACE_ID_ATTR: carried})]
            assert proxy.call("echo", payload="x") == "x"
        names = [s.name for s in obs.tracer.spans(carried)]
        assert "execute" in names and "soap.serialize" in names

    def test_pack_degree_histogram_reaches_metrics(self):
        obs = Observability()
        with echo_testbed(profile="inproc", observability=obs) as bed:
            packed_round_trip(bed, m=32)
        snap = obs.metrics_snapshot()
        assert snap["histograms"]["soap.pack_degree"]["buckets"]["<=32"] == 1
        # handler-chain pack metrics land in the same registry ...
        assert snap["histograms"]["pack.degree"]["total"] == 1
        # ... as do the span-duration and stage-latency sketches
        assert snap["sketches"]["span.execute.seconds"]["count"] == 32
        assert snap["sketches"]["stage.application.service_time_s"]["count"] >= 1


class TestAdminEndpoints:
    def test_metrics_and_healthz_are_well_formed_json(self):
        obs = Observability()
        with echo_testbed(profile="inproc", observability=obs) as bed:
            packed_round_trip(bed, m=8)
            with HttpConnection(bed.transport, bed.address) as conn:
                metrics = conn.request(
                    HttpRequest("GET", "/metrics", Headers({"Host": "t"}))
                )
                health = conn.request(
                    HttpRequest("GET", "/healthz", Headers({"Host": "t"}))
                )
        assert metrics.status == 200
        assert metrics.headers.get("Content-Type") == "application/json"
        m = json.loads(metrics.body)
        for key in ("uptime_s", "spans_recorded", "counters", "histograms"):
            assert key in m
        assert m["counters"]["http.requests"] >= 1

        assert health.status == 200
        h = json.loads(health.body)
        assert h["status"] == "ok"
        assert h["requests_served"] >= 1
        assert h["connections_accepted"] >= 1

    def test_admin_routes_do_not_exist_without_observability(self):
        with echo_testbed(profile="inproc") as bed:
            with HttpConnection(bed.transport, bed.address) as conn:
                response = conn.request(
                    HttpRequest("GET", "/healthz", Headers({"Host": "t"}))
                )
        assert response.status == 404


class TestObsOffIsByteIdentical:
    def test_responses_match_with_and_without_observability(self):
        """Turning obs on must never change a single wire byte of the
        SOAP response (traced requests differ only by the client's own
        trace header)."""
        bodies = {}
        for label, obs in (("off", None), ("on", Observability())):
            with echo_testbed(profile="inproc", observability=obs) as bed:
                proxy = bed.make_proxy(tracer=None)  # identical requests
                envelope = Envelope()
                from repro.soap.serializer import serialize_rpc_request
                from repro.apps.echo import ECHO_NS

                envelope.add_body(
                    serialize_rpc_request(ECHO_NS, "echo", {"payload": "same"})
                )
                bodies[label] = proxy.exchange(envelope, "echo")
                proxy.close()
        assert bodies["off"] == bodies["on"]

    def test_traced_client_gets_identical_response_bytes(self):
        obs = Observability()
        with echo_testbed(profile="inproc") as plain_bed:
            plain_proxy = plain_bed.make_proxy()
            plain = plain_proxy.call("echo", payload="same")
        with echo_testbed(profile="inproc", observability=obs) as traced_bed:
            traced_proxy = traced_bed.make_proxy()
            assert traced_proxy.tracer is obs.tracer
            traced = traced_proxy.call("echo", payload="same")
        assert plain == traced
