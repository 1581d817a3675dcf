#!/bin/sh
# Alternating parent/change runs of one driver of this directory.
#
# Usage: sh pairs.sh <pairs> <parent checkout> <change checkout> <driver.py> [driver args]
#
# Each side runs in its own process pinned to CPU 1 with PYTHONHASHSEED=0;
# the parent goes first in odd pairs, the change in even ones.  Prints
# one line per run: the pair, the side, and the driver's JSON line.
set -e
pairs=$1 parent=$2 change=$3 driver=$(cd "$(dirname "$4")" && pwd)/$(basename "$4")
shift 4
i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ "$side" = parent ]; then root=$parent; else root=$change; fi
    echo "$i $side $(PYTHONHASHSEED=0 taskset -c 1 python3 "$driver" "$root" "$@")"
  done
  i=$((i + 1))
done
