"""1 000 calls naming made-up operations to a server with observability
on: how many instruments, rollups and ``/metrics`` rows they leave.

Usage (from a checkout's root): PYTHONPATH=src python3 results/one_metrics_model_pr39/made_up_names.py

One process, in-process transport; the Echo service is the one
deployed service.  Retained bytes are tracemalloc's difference over the
whole process (client and server) across the 1 000 calls, after a GC.
"""

import gc
import tracemalloc

from repro.http.message import Headers, HttpRequest
from repro.obs import Observability
from repro.obs.prometheus import render_prometheus
from repro.server import ServerConfig, build_server
from repro.server.service import service_from_functions
from repro.soap.constants import SOAP_CONTENT_TYPE
from repro.soap.envelope import Envelope
from repro.soap.serializer import serialize_rpc_request
from repro.transport.inproc import InProcTransport

NS = "urn:repro:echo"
CALLS = 1000

obs = Observability()
server = build_server(ServerConfig(
    services=[service_from_functions("EchoService", NS, {"echo": lambda payload: payload})],
    transport=InProcTransport(),
    address="made-up-names",
    observability=obs,
))


def post(operation):
    envelope = Envelope()
    envelope.add_body(serialize_rpc_request(NS, operation, {"payload": "x"}))
    return server.endpoint(HttpRequest(
        "POST", "/services/EchoService",
        Headers({"Content-Type": SOAP_CONTENT_TYPE}), envelope.to_bytes(),
    ))


def counts():
    snapshot = obs.registry.snapshot()
    instruments = sum(len(snapshot[kind]) for kind in ("counters", "gauges", "sketches"))
    rollups = len(snapshot.get("rollups", {}))
    rows = sum(
        1 for line in render_prometheus(obs.registry).splitlines()
        if not line.startswith("#")
    )
    return instruments, rollups, rows


with server.running():
    post("echo")
    post("warmUp")  # the first made-up name, before the count
    gc.collect()
    before = counts()
    tracemalloc.start()
    start = tracemalloc.take_snapshot()
    for i in range(CALLS):
        assert post(f"madeUp{i}").status == 500  # the Client fault
    gc.collect()
    grown = sum(d.size_diff for d in tracemalloc.take_snapshot().compare_to(start, "filename"))
    after = counts()

print(f"instruments {before[0]} -> {after[0]}")
print(f"rollups {before[1]} -> {after[1]}")
print(f"/metrics rows {before[2]} -> {after[2]}")
print(f"retained over {CALLS} calls: {grown / CALLS:.0f} B per call")
