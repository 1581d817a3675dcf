"""In-process probes behind results/placement_pr40.md.

Run from a checkout's root, pinned to one CPU as perf/run.py pins itself:

    PYTHONPATH=src python3 results/placement_pr40/probe.py decisions
    PYTHONPATH=src python3 results/placement_pr40/probe.py record-cost
    PYTHONPATH=src python3 results/placement_pr40/probe.py faults
    MALLOC_ARENA_MAX=1 PYTHONPATH=src python3 results/placement_pr40/probe.py faults

decisions    deploys each gated workload as perf/run.py does (staged, SPI
             handlers, 50 warm round trips), then counts, over 1 000 more
             round trips, the packs placed on the protocol thread and on the
             stage; prints the stage's hand-off cost and each operation's
             last off-CPU time.  Needs the placement code.
record-cost  times SoapServer._execute on pack_small's 32 x echo(10 B) pack,
             read as the server reads it (one DecodedEntry record an entry)
             and placed on the protocol thread, with the shipped _run and
             with a _run that records nothing on the protocol thread, as the
             obs-off _run before this change (best of 9 x 2 000 calls,
             twice).  Both modes call _placed_here(entries) on records, the
             signature since the entry-record change.
faults       one common and one staged server in this process, each sent
             pack_large's 4 x echo(100 KB) pack over loopback TCP; prints
             minor page faults per round trip for each.  Runs on any
             checkout.
"""

import os
import resource
import sys
import time

sys.path.insert(0, os.getcwd())

from perf import services, workloads  # noqa: E402
from repro.core import ClientAssembler, spi_server_handlers  # noqa: E402
from repro.obs import trace as obs_trace  # noqa: E402
from repro.server import HandlerChain, ServerConfig, build_server  # noqa: E402
from repro.server.handlers import MessageContext  # noqa: E402
from repro.soap.deserializer import decode_request_envelope  # noqa: E402
from repro.transport import TcpTransport  # noqa: E402
from repro.transport.inproc import InProcTransport  # noqa: E402


def decisions(round_trips=1000):
    for name in ("pack_small", "pack_large", "pack_records", "single_small"):
        workload = workloads.WORKLOADS[name]
        messages = workloads.make_messages(workload, 1)
        deployment = workloads.Deployment(workload, messages)
        server = deployment.server
        placed = {"protocol thread": 0, "stage": 0}
        place = server._placed_here

        def counted(entries, place=place, placed=placed):
            records = place(entries)
            placed["stage" if records is None else "protocol thread"] += 1
            return records

        server._placed_here = counted
        message = next(iter(messages.values()))
        for _ in range(round_trips):
            deployment.lanes[0].send(message)
        handoff = server.app_stage.handoff_s
        off_cpu = {
            tag.split("}")[1]: record.off_cpu_s
            for tag, record in server.container.operation_metrics.items()
        }
        deployment.close()
        shown = "unmeasured" if handoff is None else f"{handoff * 1e6:.1f} us"
        print(f"{name}: packs {placed}; hand-off {shown}; off-CPU s {off_cpu}")


def record_cost(calls=2000, repeats=9):
    server = build_server(ServerConfig(
        services=[services.make_service(0)],
        architecture="staged",
        transport=InProcTransport(),
        address="record-cost",
        chain=HandlerChain(spi_server_handlers()),
    ))
    # the pack as the server reads it: one DecodedEntry record an entry
    assembler = ClientAssembler(services.PERF_NS)
    for _ in range(32):
        assembler.add_call("echo", {"payload": "0123456789"})
    context = MessageContext.for_envelope(decode_request_envelope(assembler.assemble().to_bytes()))
    server.endpoint.chain.run_request(context)
    pack = context.request_entries
    container = server.container
    shipped = server._run

    def bare(ctx, entry, on_stage=False):
        if on_stage:  # a re-measure after a pack waited: keep placement as shipped
            return shipped(ctx, entry, on_stage)
        with obs_trace.span_in(ctx, "execute", detail=entry.local_name):
            return container.execute(entry)

    def best(run):
        server._run = run
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                server._execute(pack, context)
            times.append((time.perf_counter() - start) / calls)
        return min(times)

    with server.running():
        for _ in range(20):  # the first pack is staged; the rest run here
            server._execute(pack, context)
        assert server._placed_here([container.record_of(e) for e in pack]) is not None, "pack not placed here"
        results = {}
        for _ in range(2):  # alternate, keep each side's best
            for label, run in (("records", shipped), ("bare", bare)):
                results[label] = min(results.get(label, 1.0), best(run))
    server._run = shipped
    extra = results["records"] - results["bare"]
    print(
        f"_execute(32 x echo), placed here: records {results['records'] * 1e6:.1f} us, "
        f"bare {results['bare'] * 1e6:.1f} us, recording {extra * 1e6:.1f} us a pack "
        f"({extra / 32 * 1e9:.0f} ns an entry)"
    )


def faults(round_trips=300, blocks=4):
    message = workloads.make_messages(workloads.WORKLOADS["pack_large"], 1)["pack4x100KB"]
    sides = {}
    for architecture in ("common", "staged"):
        server = build_server(ServerConfig(
            services=[services.make_service(0)],
            architecture=architecture,
            chain=HandlerChain(spi_server_handlers()),
        ))
        address = server.start()
        lane = workloads.Lane(TcpTransport(), address)
        for _ in range(50):
            assert message.check(lane.send(message))
        sides[architecture] = (server, address, lane)
    counts = {architecture: [] for architecture in sides}
    for _ in range(blocks):
        for architecture, (_, _, lane) in sides.items():
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(round_trips):
                lane.send(message)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            counts[architecture].append((after - before) / round_trips)
    for server, address, lane in sides.values():
        lane.proxy.close()
        workloads.stop_server(server, address)
    arena = os.environ.get("MALLOC_ARENA_MAX", "unset")
    for architecture, values in counts.items():
        shown = ", ".join(f"{value:.0f}" for value in values)
        print(f"MALLOC_ARENA_MAX={arena} {architecture}: minor faults per round trip {shown}")


if __name__ == "__main__":
    os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[0]})
    {"decisions": decisions, "record-cost": record_cost, "faults": faults}[sys.argv[1]]()
