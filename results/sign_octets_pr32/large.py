"""Minor faults and median round trip of a 4 x N-byte echo pack over InProcTransport.

Usage: python large.py <checkout> [N]   (N defaults to 100000; prints one JSON line)

Staged server, the SPI pair, 300 round trips after 20 warm-ups; minor
page faults (``ru_minflt``) per round trip over those 300.  Run once per
side with ``PYTHONHASHSEED=0``, as ``secured.py`` is.
"""

import json
import random
import resource
import statistics
import sys
import time

root = sys.argv[1]
size = int(sys.argv[2]) if len(sys.argv) > 2 else 100_000
sys.path[:0] = [root + "/src", root]

from perf import services  # noqa: E402
from repro.client.config import ClientConfig, build_proxy  # noqa: E402
from repro.core.batch import PackBatch  # noqa: E402
from repro.core.dispatcher import spi_server_handlers  # noqa: E402
from repro.server import HandlerChain, ServerConfig, build_server  # noqa: E402
from repro.transport.inproc import InProcTransport  # noqa: E402

rng = random.Random(1)
PAYLOADS = [services.make_payload(rng, size) for _ in range(4)]
transport = InProcTransport()
server = build_server(ServerConfig(services=[services.make_service()], architecture="staged",
                                   transport=transport, address="large",
                                   chain=HandlerChain(spi_server_handlers())))
with server.running() as address:
    proxy = build_proxy(ClientConfig(transport, address, namespace=services.PERF_NS,
                                     service_name=services.PERF_SERVICE))
    samples = []
    for i in range(320):
        if i == 20:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        with PackBatch(proxy) as batch:
            futures = [batch.call("echo", payload=p) for p in PAYLOADS]
        assert [f.result(timeout=10) for f in futures] == PAYLOADS
        if i >= 20:
            samples.append(time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    proxy.close()
print(json.dumps({"rt_ms": statistics.median(samples) * 1000, "minflt_per_rt": faults / 300}))
