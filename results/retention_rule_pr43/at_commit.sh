#!/bin/sh
# request-keyed-retention (from the checkout running it) over another
# commit's src/, e.g. 37b2c69, where the per-target rollups leaked.
#
# Usage: sh at_commit.sh <repo checkout> <commit> <scratch dir>
set -e
repo=$1 commit=$2 dir=$3
rm -rf "$dir" && mkdir -p "$dir"
git -C "$repo" archive "$commit" src | tar -x -C "$dir"
cd "$dir"
PYTHONPATH="$repo/src" python3 -c "
from repro.analysis import check
from repro.analysis.taint import RequestKeyedRetention
for finding in check(['src'], [RequestKeyedRetention()]):
    print(finding.format())
"
