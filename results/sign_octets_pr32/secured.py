"""Secured vs plain 4 x 16-record pack over InProcTransport, one process.

Usage: python secured.py <checkout>   (prints one JSON line)

``<checkout>`` is a repository checkout (its ``src/`` and ``perf/`` are
imported), so the same script times a parent and a change side by side:
run it once per side, each in its own process pinned to one CPU
(``taskset -c 1``), alternating which side goes first.

Server chain: SecurityVerifyHandler + the SPI pair (secured) or the SPI
pair alone (plain); median of 100 round trips after 20 warm-ups.  Also
times, in the same process, the client's assemble + sign + write and
assemble + write of the pack, the server's read + verify of the signed
request with the reader the endpoint picks for that chain, and its walk
of the unsigned request (median of 200 each).
"""

import json
import random
import statistics
import sys
import time

root = sys.argv[1]
sys.path[:0] = [root + "/src", root]

from perf import services  # noqa: E402
from repro.client.config import ClientConfig, build_proxy  # noqa: E402
from repro.core.assembler import ClientAssembler  # noqa: E402
from repro.core.batch import PackBatch  # noqa: E402
from repro.core.dispatcher import spi_server_handlers  # noqa: E402
from repro.server import HandlerChain, SecurityVerifyHandler, ServerConfig, build_server  # noqa: E402
from repro.soap.deserializer import decode_request_envelope, read_request_envelope  # noqa: E402
from repro.soap.wssecurity import Credentials, attach_security_header, verify_security_header  # noqa: E402
from repro.transport.inproc import InProcTransport  # noqa: E402

SECRETS = {"alice": b"alice-secret"}
ALICE = Credentials("alice", SECRETS["alice"])
rng = random.Random(1)
RECORDS = [services.make_records(rng) for _ in range(4)]


def round_trips(secured: bool) -> float:
    transport = InProcTransport()
    handlers = spi_server_handlers()
    if secured:
        handlers = [SecurityVerifyHandler(SECRETS.get), *handlers]
    server = build_server(ServerConfig(
        services=[services.make_service()], architecture="staged", transport=transport,
        address="secured", chain=HandlerChain(handlers),
    ))
    with server.running() as address:
        proxy = build_proxy(ClientConfig(
            transport, address, namespace=services.PERF_NS, service_name=services.PERF_SERVICE,
            credentials=ALICE if secured else None,
        ))
        samples = []
        for i in range(120):
            start = time.perf_counter()
            with PackBatch(proxy) as batch:
                futures = [batch.call("echoRecords", records=r) for r in RECORDS]
            assert [f.result(timeout=10) for f in futures] == RECORDS
            if i >= 20:
                samples.append(time.perf_counter() - start)
        proxy.close()
    return statistics.median(samples) * 1000


def step_ms(function, n=200) -> float:
    samples = []
    for _ in range(n):
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1000


def signed_request():
    assembler = ClientAssembler(services.PERF_NS)
    for r in RECORDS:
        assembler.add_call("echoRecords", {"records": r})
    envelope = assembler.assemble()
    attach_security_header(envelope, ALICE)
    return envelope


def sign_and_write():
    signed_request().to_bytes()


WIRE = signed_request().to_bytes()
# the reader the endpoint picks for this chain: the parent's verifier reads
# entries, so it takes the tree source; this change's does not
chain = HandlerChain([SecurityVerifyHandler(SECRETS.get), *spi_server_handlers()])
READ = read_request_envelope if chain.reads_entries else decode_request_envelope


def read_and_verify():
    verify_security_header(READ(WIRE), SECRETS.get)


def plain_request():
    assembler = ClientAssembler(services.PERF_NS)
    for r in RECORDS:
        assembler.add_call("echoRecords", {"records": r})
    return assembler.assemble()


PLAIN = plain_request().to_bytes()


print(json.dumps({
    "secured_ms": round_trips(True),
    "plain_ms": round_trips(False),
    "client_assemble_sign_write_ms": step_ms(sign_and_write),
    "server_read_verify_ms": step_ms(read_and_verify),
    "client_assemble_write_plain_ms": step_ms(lambda: plain_request().to_bytes()),
    "server_walk_plain_ms": step_ms(lambda: decode_request_envelope(PLAIN)),
    "reader": READ.__name__,
}))
