"""In-process ladder behind results/envelope_skeleton_pr42.md.

Run from a checkout's root (works on any checkout with ``perf/`` and
``src/repro``):

    PYTHONPATH=src python3 results/envelope_skeleton_pr42/ladder.py ladder [--cpu N] [--rounds R]
    PYTHONPATH=src python3 results/envelope_skeleton_pr42/ladder.py share [--round-trips N]

ladder  deploys ``perf/run.py``'s server (staged, SPI handlers, the echo
        service, observability off) with no socket, and times, pinned to
        one CPU, in microseconds per message, for ``single_small``'s request
        (one unpacked echo(10 B)) and for ``pack_small``'s first call packed
        alone (``--calls 1`` of ``results/entry_record_pr41/stages.py``):
        the server read (``decode_request_envelope``), the whole server
        (``SoapEndpoint._handle_soap``), the client's build and write
        (``build_request_envelope`` or ``add_call`` + ``assemble``, then
        ``to_bytes``) and the client's read (``decode_response_envelope``).
        Each step is the median over ``R`` rounds of the best of 5 loops;
        every round checks the answers.  It also prints the SHA-256 of the
        request and response bytes, equal on two checkouts whose wire is.
share   runs each gated workload over loopback TCP as ``perf/run.py``
        deploys it, keeps every request and response body the endpoint
        and the client saw, then reads each once more, counting the
        documents whose Envelope head (``XmlScanner.resume``) and tail
        (no ``XmlScanner.finish``) were taken as literals.  On a checkout
        without ``resume`` every document reads as a miss.  It also times
        one miss: a ``resume`` on a document that does not start with the
        literal head.
"""

import argparse
import dataclasses
import hashlib
import os
import random
import statistics
import sys
import time

sys.path.insert(0, os.getcwd())

from perf import services, workloads  # noqa: E402
from repro.core import ClientAssembler, spi_server_handlers  # noqa: E402
from repro.core.dispatcher import pack_results  # noqa: E402
from repro.http.message import Headers, HttpRequest  # noqa: E402
from repro.server import HandlerChain, ServerConfig, build_server  # noqa: E402
from repro.soap import deserializer  # noqa: E402
from repro.soap.deserializer import decode_request_envelope, decode_response_envelope  # noqa: E402
from repro.soap.deserializer import parse_rpc_response  # noqa: E402
from repro.soap.serializer import build_request_envelope  # noqa: E402
from repro.transport.inproc import InProcTransport  # noqa: E402
from repro.xmlcore.treebuilder import XmlScanner  # noqa: E402


def best(step, loops: int) -> float:
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(loops):
            step()
        times.append((time.perf_counter() - start) / loops * 1e6)
    return min(times)


def cases():
    """(label, client build, answer check, SOAPAction) per measured request."""
    single = workloads.make_message("single10B", random.Random("single_small:1"))
    call = single.calls[0]
    packed = workloads.make_message("pack32x10B", random.Random("pack_small:1"))
    packed = dataclasses.replace(packed, calls=packed.calls[:1], expected=packed.expected[:1])

    def build_single():
        return build_request_envelope(services.PERF_NS, call.operation, call.params)

    def check_single(body):
        return single.check([parse_rpc_response(decode_response_envelope(body).first_body_entry()).value])

    futures = []

    def build_packed():
        assembler = ClientAssembler(services.PERF_NS)
        futures[:] = [assembler.add_call(c.operation, c.params) for c in packed.calls]
        return assembler.assemble()

    def check_packed(body):
        return packed.check(pack_results(decode_response_envelope(body), futures))

    return (("single_small", build_single, check_single, f'"{services.PERF_NS}#echo"'),
            ("pack_small --calls 1", build_packed, check_packed, '"Parallel_Method"'))


def ladder(args) -> None:
    os.sched_setaffinity(0, {args.cpu})
    server = build_server(ServerConfig(
        services=[services.make_service(0)],
        architecture="staged",
        transport=InProcTransport(),
        address="envelope-skeleton",
        chain=HandlerChain(spi_server_handlers()),
    ))
    with server.running():
        for label, build, check, action in cases():
            body = build().to_bytes()
            request = HttpRequest(
                "POST", f"/services/{services.PERF_SERVICE}",
                Headers({"Content-Type": "text/xml; charset=utf-8", "SOAPAction": action}), body,
            )
            handle = server.endpoint._handle_soap
            for _ in range(50):  # a first pack is staged; placement runs later ones here
                response = handle(request)
            steps = {
                "server read (decode_request_envelope)": (lambda: decode_request_envelope(body), 4000),
                "server _handle_soap": (lambda: handle(request), 2000),
                "client build + to_bytes": (lambda: build().to_bytes(), 4000),
                "client read (decode_response_envelope)":
                    (lambda: decode_response_envelope(response.body), 4000),
            }
            rounds = {name: [] for name in steps}
            for _ in range(args.rounds):
                for name, (step, loops) in steps.items():
                    rounds[name].append(best(step, loops))
                response = handle(request)
                assert check(response.body), "wrong answer"
            print(f"{label}: request {len(body)} B sha256 {hashlib.sha256(body).hexdigest()[:16]}, "
                  f"response {len(response.body)} B sha256 {hashlib.sha256(response.body).hexdigest()[:16]}")
            for name, values in rounds.items():
                print(f"  {name:40s} {statistics.median(values):7.1f} us "
                      f"(min {min(values):.1f}, max {max(values):.1f})")


def share(args) -> None:
    resume = getattr(XmlScanner, "resume", None)
    counts = {"resume": 0, "finish": 0}

    def counted_resume(self, *a, **k):
        taken = resume(self, *a, **k)
        counts["resume"] += taken
        return taken

    finish = XmlScanner.finish

    def counted_finish(self):
        counts["finish"] += 1
        return finish(self)

    for name, workload in workloads.WORKLOADS.items():
        if not workload.gated:
            continue
        seen = {"request": [], "response": []}
        server_read, client_read = deserializer.decode_request_envelope, deserializer.decode_response_envelope
        endpoint_module = sys.modules["repro.server.endpoint"]
        proxy_module = sys.modules["repro.client.proxy"]
        batch_module = sys.modules["repro.core.batch"]
        endpoint_module.decode_request_envelope = lambda d: seen["request"].append(d) or server_read(d)
        keep = lambda d: seen["response"].append(d) or client_read(d)  # noqa: E731
        proxy_module.decode_response_envelope = batch_module.decode_response_envelope = keep
        try:
            messages = workloads.make_messages(workload, 1)
            deployment = workloads.Deployment(workload, messages)
            for _ in range(args.round_trips):
                for message in messages.values():
                    assert message.check(deployment.lanes[0].send(message)), "wrong answer"
            deployment.close()
        finally:
            endpoint_module.decode_request_envelope = server_read
            proxy_module.decode_response_envelope = batch_module.decode_response_envelope = client_read
        if resume is not None:
            XmlScanner.resume = counted_resume
        XmlScanner.finish = counted_finish
        try:
            for side, read in (("request", server_read), ("response", client_read)):
                counts.update(resume=0, finish=0)
                for document in seen[side]:
                    read(document)
                total = len(seen[side])
                print(f"{name} {side}s: {total}; literal head {counts['resume']} "
                      f"({counts['resume'] / total:.0%}), literal tail {total - counts['finish']} "
                      f"({(total - counts['finish']) / total:.0%})")
        finally:
            XmlScanner.finish = finish
            if resume is not None:
                XmlScanner.resume = resume
    if resume is not None:
        from repro.soap import envelope as soap_envelope

        other = b"<?xml version='1.0' encoding='UTF-8'?>" + seen["request"][0][38:]
        scanner = XmlScanner(other)
        head = soap_envelope._SKELETON[0]
        start = time.perf_counter()
        for _ in range(100000):
            scanner.resume(head)
        print(f"a miss (resume on a document without the literal head): "
              f"{(time.perf_counter() - start) / 100000 * 1e9:.0f} ns")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("ladder", "share"))
    parser.add_argument("--cpu", type=int, default=0, help="the CPU to pin to")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--round-trips", type=int, default=200)
    args = parser.parse_args()
    {"ladder": ladder, "share": share}[args.mode](args)


if __name__ == "__main__":
    main()
