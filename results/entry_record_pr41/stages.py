"""Per-step timing behind results/entry_record_pr41.md section 3.

Run from a checkout's root (works on any checkout with ``perf/`` and
``src/repro``):

    PYTHONPATH=src python3 results/entry_record_pr41/stages.py [--cpu N] [--calls M]

Deploys what ``measure.py`` deploys (``pack_small``'s staged server, no
socket) and times each step of ``SoapEndpoint._handle_soap`` on
``pack_small``'s request separately, best of 5 loops, in microseconds
per message: the server read, the handler chain's request side, the
executor, the chain's response side and the response write; then the
client's assemble, write, read and ``pack_results``.  ``--calls 1`` packs
only the first of the 32 calls: what a pack costs apart from its entries.
"""

import argparse
import dataclasses
import os
import random
import sys
import time

sys.path.insert(0, os.getcwd())

from perf import services, workloads  # noqa: E402
from repro.core import ClientAssembler, spi_server_handlers  # noqa: E402
from repro.core.dispatcher import pack_results  # noqa: E402
from repro.http.message import Headers, HttpRequest  # noqa: E402
from repro.server import HandlerChain, ServerConfig, build_server  # noqa: E402
from repro.server.handlers import MessageContext  # noqa: E402
from repro.soap.deserializer import decode_request_envelope, decode_response_envelope  # noqa: E402
from repro.soap.envelope import Envelope  # noqa: E402
from repro.transport.inproc import InProcTransport  # noqa: E402


def best(label: str, step, loops: int = 2000) -> None:
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(loops):
            step()
        times.append((time.perf_counter() - start) / loops * 1e6)
    print(f"  {label:36s} {min(times):7.1f} us")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cpu", type=int, default=0, help="the CPU to pin to")
    parser.add_argument("--calls", type=int, default=32, help="how many of the 32 calls to pack")
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    message = workloads.make_message("pack32x10B", random.Random("pack_small:1"))
    message = dataclasses.replace(message, calls=message.calls[: args.calls], expected=message.expected[: args.calls])
    server = build_server(ServerConfig(
        services=[services.make_service(0)],
        architecture="staged",
        transport=InProcTransport(),
        address="entry-record-stages",
        chain=HandlerChain(spi_server_handlers()),
    ))

    def assemble():
        assembler = ClientAssembler(services.PERF_NS)
        futures = [assembler.add_call(call.operation, call.params) for call in message.calls]
        return futures, assembler.assemble()

    futures, envelope = assemble()
    body = envelope.to_bytes()
    request = HttpRequest("POST", f"/services/{services.PERF_SERVICE}", Headers({"SOAPAction": '""'}), body)
    chain = server.endpoint.chain
    with server.running():
        for _ in range(50):  # the first pack is staged; placement runs later ones here
            response = server.endpoint._handle_soap(request)
        assert message.check(pack_results(decode_response_envelope(response.body), futures))
        decoded = decode_request_envelope(body)

        def request_side():
            context = MessageContext.for_envelope(decoded)
            chain.run_request(context)
            return context

        context = request_side()
        answers = server._execute(context.request_entries, context)

        def response_side():
            context.response_entries = answers
            chain.run_response(context)

        response_side()
        written = Envelope()
        written.body_entries = list(context.response_entries)
        reply = decode_response_envelope(response.body)
        print(f"pack_small, {args.calls} x echo(10 B): best of 5 loops, us per message")
        best("server _handle_soap", lambda: server.endpoint._handle_soap(request), 1000)
        best("  decode_request_envelope", lambda: decode_request_envelope(body))
        best("  MessageContext + run_request", request_side)
        best("  SoapServer._execute", lambda: server._execute(context.request_entries, context))
        best("  run_response", response_side)
        best("  Envelope.to_bytes (response)", written.to_bytes)
        best("client add_call per call + assemble", assemble)
        best("  Envelope.to_bytes (request)", envelope.to_bytes)
        best("  decode_response_envelope", lambda: decode_response_envelope(response.body))
        best("  pack_results", lambda: pack_results(reply, futures))


if __name__ == "__main__":
    main()
