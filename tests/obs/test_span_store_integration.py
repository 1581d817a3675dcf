"""Integration: the queryable span store over real servers — trace
trees for packed calls, the /trace and /traces routes, and tail
sampling retaining every fault/shed trace in a seeded chaos run."""

import json
import random

import pytest

from repro.bench.workloads import echo_calls, echo_testbed, make_invoker
from repro.core.batch import PackBatch
from repro.errors import SoapFaultError
from repro.http.connection import HttpConnection
from repro.http.core import ConnectionState
from repro.http.evented import EventedHttpServer
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.server import HttpServer
from repro.obs import FLAG_FAULT, FLAG_SHED, Observability, SpanStore
from repro.resilience.policy import CallPolicy
from repro.transport.tcp import TcpTransport


@pytest.fixture(params=["threaded", "evented"])
def backend(request):
    """The span store is fed by both protocol backends; the evented
    loop needs real sockets, so it runs on the loopback profile."""
    return request.param


def bed_kwargs(backend):
    """echo_testbed keyword arguments for the given protocol backend."""
    profile = "inproc" if backend == "threaded" else "loopback"
    return {"profile": profile, "backend": backend}


def store_testbed(**store_kwargs):
    store = SpanStore(rng=random.Random(7), **store_kwargs)
    obs = Observability(span_store=store)
    return store, obs


def count_name(node, name):
    return (node["name"] == name) + sum(
        count_name(child, name) for child in node["children"]
    )


class TestPackedTraceTree:
    @pytest.mark.parametrize("architecture", ["staged", "common"])
    def test_trace_route_returns_one_execute_child_per_pack_entry(
        self, architecture, backend
    ):
        """A packed Parallel_Method call renders as a ``server.handle``
        tree carrying one ``execute`` child span per pack entry."""
        store, obs = store_testbed(sample_rate=1.0)
        m = 8
        with echo_testbed(
            architecture=architecture, observability=obs, **bed_kwargs(backend)
        ) as bed:
            proxy = bed.make_proxy()
            invoker = make_invoker("our-approach", proxy)
            results = invoker.invoke_all(echo_calls(m, 10), CallPolicy(timeout=60))
            trace_id = proxy.last_trace_id
            with HttpConnection(bed.transport, bed.address) as conn:
                response = conn.request(
                    HttpRequest(
                        "GET", f"/trace/{trace_id}", Headers({"Host": "t"})
                    )
                )
            proxy.close()
        assert len(results) == m
        assert response.status == 200
        assert response.headers.get("Content-Type") == "application/json"
        tree = json.loads(response.body)
        assert tree["trace_id"] == trace_id

        roots = {node["name"]: node for node in tree["roots"]}
        handle = roots["server.handle"]
        # every pack entry executed as a child span of the request tree
        children = [c["name"] for c in handle["children"]]
        assert children.count("execute") == m
        # the SOAP phases nest under the same root
        for phase in ("soap.parse", "spi.unpack", "spi.pack", "soap.serialize"):
            assert count_name(handle, phase) == 1, phase
        # execute children carry the operation name
        executes = [c for c in handle["children"] if c["name"] == "execute"]
        assert all(c["detail"] == "echo" for c in executes)

    def test_traces_route_lists_slowest_with_stats(self, backend):
        store, obs = store_testbed(sample_rate=1.0)
        with echo_testbed(observability=obs, **bed_kwargs(backend)) as bed:
            proxy = bed.make_proxy()
            invoker = make_invoker("our-approach", proxy)
            invoker.invoke_all(echo_calls(4, 10), CallPolicy(timeout=60))
            with HttpConnection(bed.transport, bed.address) as conn:
                listing = conn.request(
                    HttpRequest(
                        "GET", "/traces?slowest=2", Headers({"Host": "t"})
                    )
                )
                missing = conn.request(
                    HttpRequest("GET", "/trace/feedfacedeadbeef", Headers({"Host": "t"}))
                )
            proxy.close()
        assert listing.status == 200
        doc = json.loads(listing.body)
        assert len(doc["traces"]) >= 1
        assert {"trace_id", "duration_s", "spans", "flags"} <= set(doc["traces"][0])
        assert doc["stats"]["kept"] >= 1
        assert missing.status == 404

    def test_routes_404_without_a_store(self, backend):
        obs = Observability()  # no span store attached
        with echo_testbed(observability=obs, **bed_kwargs(backend)) as bed:
            with HttpConnection(bed.transport, bed.address) as conn:
                listing = conn.request(
                    HttpRequest("GET", "/traces", Headers({"Host": "t"}))
                )
        assert listing.status == 404


class TestTraceIsListableOnceItsResponseIsRead:
    """PROTOCOL.md: the trace completes before its response bytes are
    handed to the driver, so a peer that has read the response finds it
    under ``/trace/<id>`` and ``/traces`` — on either backend, since
    both leave through ``HttpServerCore._finish``."""

    @pytest.mark.parametrize("server_class", [HttpServer, EventedHttpServer])
    def test_trace_is_retained_when_the_bytes_are_handed_over(self, server_class):
        store, obs = store_testbed(sample_rate=1.0)
        server = server_class(
            lambda request: HttpResponse(200, Headers(), b"ok"),
            transport=TcpTransport(),
            address=("127.0.0.1", 0),
            observability=obs,
        )
        conn = ConnectionState(now=0.0)
        request = HttpRequest("POST", "/svc", Headers({"Host": "t"}), b"")
        seen_at_delivery = []

        def deliver(payloads, close):
            seen_at_delivery.append(store.get(trace_id))

        trace_id = server._admit(conn, request, 0.0, deliver)
        server._handle(conn, request, trace_id, deliver)

        (tree,) = seen_at_delivery
        assert tree is not None, "response delivered before its trace completed"
        assert [root["name"] for root in tree["roots"]] == [
            "http.parse", "server.handle"
        ]
        # http.send ends after the hand-over and joins the record late
        names = [root["name"] for root in store.get(trace_id)["roots"]]
        assert names == ["http.parse", "server.handle", "http.send"]
        assert store.stats()["completed"] == 1


class TestSeededChaosRetention:
    def test_every_fault_trace_survives_sampling(self, backend):
        """With sampling at its harshest (rate 0), a seeded run mixing
        boring echoes with faulting calls retains *every* fault trace."""
        store, obs = store_testbed(sample_rate=0.0)
        fault_ids = []
        with echo_testbed(observability=obs, **bed_kwargs(backend)) as bed:
            proxy = bed.make_proxy()
            for i in range(40):
                proxy.call("echo", payload=f"x{i}")
            for i in range(8):
                with pytest.raises(SoapFaultError):
                    proxy.call("noSuchOperation", payload="boom")
                fault_ids.append(proxy.last_trace_id)
            proxy.close()
        stats = store.stats()
        assert stats["dropped"] > 0, "sampling never engaged — test is vacuous"
        assert set(fault_ids) <= set(store.flagged_ids([FLAG_FAULT]))

    def test_shed_pack_entries_flag_the_trace_under_overload(self, backend):
        """Partial-success packs answer HTTP 200; the per-entry
        Server.Busy faults must still flag the trace for retention."""
        store, obs = store_testbed(sample_rate=0.0)
        with echo_testbed(
            app_workers=1,
            app_queue_limit=2,
            observability=obs,
            **bed_kwargs(backend),
        ) as bed:
            proxy = bed.make_proxy()
            batch = PackBatch(proxy)
            futures = [
                batch.call("delayedEcho", payload=f"s{i}", delay_ms=40)
                for i in range(16)
            ]
            batch.flush()
            errors = [f.exception(timeout=30) for f in futures]
            trace_id = proxy.last_trace_id
            proxy.close()
        shed = sum(
            1
            for e in errors
            if isinstance(e, SoapFaultError) and e.faultcode == "Server.Busy"
        )
        assert shed > 0, "overload did not shed — test is vacuous"
        assert trace_id in store.flagged_ids([FLAG_SHED])
        tree = store.get(trace_id)
        assert FLAG_SHED in tree["flags"]
