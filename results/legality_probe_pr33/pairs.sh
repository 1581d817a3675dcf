#!/bin/sh
# Alternating parent/change runs of the benchmark's four gated workloads.
#
# Usage: sh pairs.sh <first seed> <last seed> <parent checkout> <change checkout> <out dir>
#
# Pair S runs `perf/run.py --seed S --seconds 24 --trace 0` on both sides,
# the parent first in odd pairs and the change first in even ones, and
# keeps each run's perf/out/result.json as <out dir>/S-<side>.json.
set -e
first=$1 last=$2 parent=$3 change=$4 out=$5
mkdir -p "$out"
i=$first
while [ "$i" -le "$last" ]; do
  if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ "$side" = parent ]; then root=$parent; else root=$change; fi
    (cd "$root" && python3 perf/run.py --workload pack_records --workload pack_small \
      --workload pack_large --workload single_small --seed "$i" --seconds 24 --trace 0 \
      > /dev/null && cp perf/out/result.json "$out/$i-$side.json")
    echo "$i $side done"
  done
  i=$((i + 1))
done
