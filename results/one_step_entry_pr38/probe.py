"""One-process cost of both readers on the pack_small request and response.

Usage: python probe.py <checkout>   (prints one JSON line)

Builds ``pack_small``'s packed request (32 x echo(10 B), ``perf/``'s
seeded input, seed 1) with the client assembler, has the endpoint of
``perf/``'s server (staged, SPI handler chain) answer it in process, and reports, best of 9 x 30
calls each, in ms:

* ``request_ms``: ``decode_request_envelope`` of the request bytes,
  what the server's endpoint calls;
* ``response_ms``: ``decode_response_envelope`` of the response body,
  what a packed batch calls.
"""

import json
import random
import sys
import timeit

root = sys.argv[1]
sys.path[:0] = [root + "/src", root]

from perf import services  # noqa: E402
from repro.core.assembler import ClientAssembler  # noqa: E402
from repro.http import Headers, HttpRequest  # noqa: E402
from repro.server import HandlerChain, ServerConfig, build_server  # noqa: E402
from repro.core import spi_server_handlers  # noqa: E402
from repro.soap.deserializer import decode_request_envelope, decode_response_envelope  # noqa: E402

rng = random.Random(1)
assembler = ClientAssembler(services.PERF_NS)
for _ in range(32):
    assembler.add_call("echo", {"payload": services.make_payload(rng, 10)})
request = assembler.assemble().to_bytes()
server = build_server(
    ServerConfig(
        services=[services.make_service(0)],
        architecture="staged",
        chain=HandlerChain(spi_server_handlers()),
    )
)
try:
    answer = server.endpoint(
        HttpRequest(
            "POST",
            f"/services/{services.PERF_SERVICE}",
            Headers({"SOAPAction": '""', "Content-Type": "text/xml; charset=utf-8"}),
            request,
        )
    )
finally:
    server.stop()
response = answer.body
assert answer.status == 200, answer.body[:400]


def best_ms(function, number=30, repeat=9):
    return min(timeit.repeat(function, number=number, repeat=repeat)) / number * 1000


print(
    json.dumps(
        {
            "request_B": len(request),
            "response_B": len(response),
            "request_ms": round(best_ms(lambda: decode_request_envelope(request)), 4),
            "response_ms": round(best_ms(lambda: decode_response_envelope(response)), 4),
        }
    )
)
