#!/bin/sh
# A/A runs of one workload: two copies of the same files, alternating.
#
# Usage: sh aa.sh <workload> <first seed> <last seed> <copy a> <copy b> <out dir>
#
# Pair S runs `perf/run.py --workload W --seed S --seconds 24 --trace 0` in
# both copies, copy a first in odd pairs and copy b first in even ones, keeps
# each run's perf/out/result.json as <out dir>/S-a.json and S-b.json, and at
# the end prints each pair's rt_p50_ms and cpu_ms_per_call, b against a.
set -e
workload=$1 first=$2 last=$3 a=$4 b=$5 out=$6
mkdir -p "$out"
i=$first
while [ "$i" -le "$last" ]; do
  if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
  for side in $order; do
    if [ "$side" = a ]; then root=$a; else root=$b; fi
    (cd "$root" && python3 perf/run.py --workload "$workload" --seed "$i" --seconds 24 \
      --trace 0 > /dev/null && cp perf/out/result.json "$out/$i-$side.json")
    echo "$i $side done"
  done
  i=$((i + 1))
done
python3 - "$workload" "$out" <<'SUMMARY'
import json, pathlib, statistics, sys

workload, out = sys.argv[1], pathlib.Path(sys.argv[2])
for metric in ("rt_p50_ms", "cpu_ms_per_call"):
    runs = {"a": {}, "b": {}}
    for path in out.glob("*-?.json"):
        seed, side = path.stem.split("-")
        runs[side][seed] = json.loads(path.read_text())["workloads"][workload]["end_to_end"][metric]
    seeds = sorted(set(runs["a"]) & set(runs["b"]))
    a, b = [runs["a"][s] for s in seeds], [runs["b"][s] for s in seeds]
    steps = ", ".join(f"{(y / x - 1) * 100:+.1f}" for x, y in zip(a, b))
    print(f"{workload} {metric}: a median {statistics.median(a):.4g}, "
          f"b median {statistics.median(b):.4g}; b vs a per pair (%): {steps}")
SUMMARY
