"""One sample of the WS-Security ablation: speedup with and without it.

Usage: python ablation.py <checkout>   (prints one JSON line)

Runs ``figures.wssecurity_ablation(repeats=7)`` on the default ``lan``
profile; ``ratio`` is the speedup with WS-Security over the speedup
without, the figure ``benchmarks/test_claims.py`` asserts is >= 0.9.
"""

import json
import sys
import time

root = sys.argv[1]
sys.path[:0] = [root + "/src"]

from repro.bench import figures  # noqa: E402

start = time.perf_counter()
r = figures.wssecurity_ablation(repeats=7)
rows = dict(r.rows)
print(json.dumps({"without": rows["speedup without WS-Security"], "with": rows["speedup with WS-Security"],
                  "ratio": rows["speedup with WS-Security"] / rows["speedup without WS-Security"],
                  "s": round(time.perf_counter() - start, 1)}))
