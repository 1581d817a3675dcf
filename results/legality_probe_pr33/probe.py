"""One-process costs of the legality probe, the server parse and invoke.

Usage: python probe.py <checkout>   (prints one JSON line)

Builds the packed requests of ``pack_large`` (4 x echo(100 KB)) and
``pack_records`` (4 x 16 records) from ``perf/``'s seeded inputs (seed
1) and reports, best of 15 x 100 calls each, in ms:

* ``probe_<workload>_ms``: ``has_suspect_chars`` on the decoded request;
* ``peak_<workload>_B``: the probe's ``tracemalloc`` peak, in bytes;
* ``parse_<workload>_ms``: ``decode_request_envelope`` of its bytes,
  what the server's endpoint calls;
* ``invoke_us``: one ``ServiceDefinition.invoke`` of ``echo`` (best of
  7 x 20 000), in microseconds.
"""

import json
import random
import sys
import timeit
import tracemalloc

root = sys.argv[1]
sys.path[:0] = [root + "/src", root]

from perf import services  # noqa: E402
from repro.core.assembler import ClientAssembler  # noqa: E402
from repro.soap.deserializer import decode_request_envelope  # noqa: E402
from repro.xmlcore.escape import has_suspect_chars  # noqa: E402


def request(operation, make_value):
    rng = random.Random(1)
    assembler = ClientAssembler(services.PERF_NS)
    for _ in range(4):
        key = "payload" if operation == "echo" else "records"
        assembler.add_call(operation, {key: make_value(rng)})
    return assembler.assemble().to_bytes()


def best_ms(function, number=100, repeat=15):
    return min(timeit.repeat(function, number=number, repeat=repeat)) / number * 1000


DOCUMENTS = {
    "pack_large": request("echo", lambda rng: services.make_payload(rng, 100_000)),
    "pack_records": request("echoRecords", services.make_records),
}
out = {}
for name, data in DOCUMENTS.items():
    text = data.decode("utf-8")
    out[f"probe_{name}_ms"] = round(best_ms(lambda: has_suspect_chars(text)), 4)
    tracemalloc.start()
    has_suspect_chars(text)
    out[f"peak_{name}_B"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out[f"parse_{name}_ms"] = round(best_ms(lambda: decode_request_envelope(data), 20, 9), 4)
service = services.make_service(0)
params = {"payload": "abcdefghij"}
out["invoke_us"] = round(best_ms(lambda: service.invoke("echo", params), 20_000, 7) * 1000, 3)
print(json.dumps(out))
