"""In-process timing behind results/entry_record_pr41.md.

Run from a checkout's root (this script, or a copy of it, works on any
checkout that has ``perf/`` and ``src/repro``):

    PYTHONPATH=src python3 results/entry_record_pr41/measure.py [--cpu N] [--blocks B] [--messages M]

It builds what ``perf/run.py`` deploys for ``pack_small`` -- a staged
server with the SPI handlers, the echo service, observability off -- but
calls it in this process, with no socket: the request is
``pack_small``'s message (``perf.workloads.make_message("pack32x10B",
...)``, seed 1), 32 x echo(10 B).  Pinned to one CPU, it times in
microseconds per message, median over ``B`` blocks of ``M`` messages:

server   ``SoapEndpoint._handle_soap`` on the request's bytes
         (decode, SPI unpack, placement, execute, pack, write);
client   ``ClientAssembler.add_call`` x 32 + ``assemble()`` + ``to_bytes()``;
reply    ``decode_response_envelope`` + ``pack_results`` on the response.

Every block checks the answers: each message's 32 decoded values must be
the payloads sent, so a faster wrong path cannot pass.  The staged server
places each pack from measurements (inline on the protocol thread, or on
the application stage); the script prints how many of the timed packs the
stage ran, since a run whose packs were staged is not comparable with one
whose packs ran inline.  It also prints the
SHA-256 of the request and response bytes, which must match between two
checkouts whose wire is the same.
"""

import argparse
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
from repro.soap.deserializer import decode_response_envelope  # noqa: E402
from repro.transport.inproc import InProcTransport  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cpu", type=int, default=0, help="the CPU to pin to")
    parser.add_argument("--blocks", type=int, default=15)
    parser.add_argument("--messages", type=int, default=300, help="messages a block")
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})

    message = workloads.make_message("pack32x10B", random.Random("pack_small:1"))
    server = build_server(ServerConfig(
        services=[services.make_service(0)],
        architecture="staged",
        transport=InProcTransport(),
        address="entry-record",
        chain=HandlerChain(spi_server_handlers()),
    ))

    def client_write():
        assembler = ClientAssembler(services.PERF_NS)
        futures = [assembler.add_call(call.operation, call.params) for call in message.calls]
        return futures, assembler.assemble().to_bytes()

    futures, body = client_write()
    request = HttpRequest(
        "POST", f"/services/{services.PERF_SERVICE}",
        Headers({"Content-Type": "text/xml; charset=utf-8", "SOAPAction": '"Parallel_Method"'}),
        body,
    )
    handle = server.endpoint._handle_soap

    def reply(response_body):
        return pack_results(decode_response_envelope(response_body), futures)

    with server.running():
        for _ in range(50):  # the first pack is staged; placement runs later ones here
            response = handle(request)
        assert response.status == 200, response.status
        assert message.check(reply(response.body)), "wrong answers"

        def timed(step, argument):
            times = []
            for _ in range(args.blocks):
                start = time.perf_counter()
                for _ in range(args.messages):
                    out = step(argument)
                times.append((time.perf_counter() - start) / args.messages * 1e6)
                yield times, out

        results = {}
        staged = server.registry.sketch("stage.application.service_time_s")
        before = staged.count
        for times, response in timed(handle, request):
            assert response.status == 200 and message.check(reply(response.body)), "wrong answers"
        results["server _handle_soap"] = times
        staged_packs = (staged.count - before) / len(message.calls)
        for times, (_, written) in timed(lambda _: client_write(), None):
            assert written == body, "the client wrote other bytes"
        results["client add_call x32 + assemble + to_bytes"] = times
        for times, slots in timed(reply, response.body):
            assert message.check(slots), "wrong answers"
        results["reply decode + pack_results"] = times

    print(f"pack_small request: 32 x echo(10 B), {len(body)} B; response {len(response.body)} B")
    print(f"sha256 request  {hashlib.sha256(body).hexdigest()}")
    print(f"sha256 response {hashlib.sha256(response.body).hexdigest()}")
    print(f"packs the stage ran: {staged_packs:.0f} of {args.blocks * args.messages}")
    print(f"median (quartiles) of {args.blocks} blocks x {args.messages} messages, CPU {args.cpu}:")
    for name, times in results.items():
        q1, median, q3 = statistics.quantiles(times, n=4)
        print(f"  {name:45s} {median:7.1f} us  ({q1:.1f} .. {q3:.1f})")


if __name__ == "__main__":
    main()
