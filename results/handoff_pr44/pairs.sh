#!/bin/sh
# Alternating parent/change pairs of the benchmark's own command.
#
# Usage: sh pairs.sh <pairs> <parent copy> <change copy> <out dir>
#
# Pair I runs `python3 perf/run.py` (all four workloads, the default seed and
# length) in both copies, the parent first in odd pairs and the change first
# in even ones, keeps each run's perf/out/result.json as <out dir>/I-a.json
# (parent) and I-b.json (change), and at the end prints, per workload, each
# pair's rt_p50_ms and cpu_ms_per_call, change against parent, the medians
# and the parent's quartile distance.
set -e
pairs=$1 a=$2 b=$3 out=$4
mkdir -p "$out"
i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
  for side in $order; do
    if [ "$side" = a ]; then root=$a; else root=$b; fi
    (cd "$root" && python3 perf/run.py > /dev/null && cp perf/out/result.json "$out/$i-$side.json")
    echo "$i $side done"
  done
  i=$((i + 1))
done
python3 - "$out" <<'SUMMARY'
import json, pathlib, statistics, sys

out = pathlib.Path(sys.argv[1])
runs = {"a": {}, "b": {}}
for path in out.glob("*-?.json"):
    pair, side = path.stem.split("-")
    runs[side][pair] = json.loads(path.read_text())["workloads"]
pairs = sorted(set(runs["a"]) & set(runs["b"]), key=int)
for workload in sorted(runs["a"][pairs[0]]):
    for metric in ("rt_p50_ms", "cpu_ms_per_call", "wire_bytes_per_call"):
        a = [runs["a"][p][workload]["end_to_end"][metric] for p in pairs]
        b = [runs["b"][p][workload]["end_to_end"][metric] for p in pairs]
        q = statistics.quantiles(a, n=4)
        wins = sum(y < x for x, y in zip(a, b))
        steps = ", ".join(f"{(y / x - 1) * 100:+.1f}" for x, y in zip(a, b))
        print(f"{workload} {metric}: parent median {statistics.median(a):.4g} "
              f"(IQR {q[2] - q[0]:.3g}), change median {statistics.median(b):.4g} "
              f"({(statistics.median(b) / statistics.median(a) - 1) * 100:+.1f} %), "
              f"change lower in {wins}/{len(pairs)}; per pair (%): {steps}")
SUMMARY
