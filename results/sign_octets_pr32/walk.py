"""Best-of timing of the server's walk of the unsigned 4 x 16-record pack.

Usage: python walk.py <checkout>   (prints one JSON line)

Best of 9 x 100 ``decode_request_envelope`` calls of the pack
``secured.py`` sends unsigned; run once per side, as ``secured.py`` is.
"""

import json
import random
import sys
import time

root = sys.argv[1]
sys.path[:0] = [root + "/src", root]

from perf import services  # noqa: E402
from repro.core.assembler import ClientAssembler  # noqa: E402
from repro.soap.deserializer import decode_request_envelope  # noqa: E402

rng = random.Random(1)
assembler = ClientAssembler(services.PERF_NS)
for _ in range(4):
    assembler.add_call("echoRecords", {"records": services.make_records(rng)})
PLAIN = assembler.assemble().to_bytes()
best = []
for _ in range(9):
    start = time.perf_counter()
    for _ in range(100):
        decode_request_envelope(PLAIN)
    best.append((time.perf_counter() - start) / 100 * 1000)
print(json.dumps({"walk_best_ms": min(best)}))
