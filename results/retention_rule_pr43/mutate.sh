#!/bin/sh
# The mutation check of request-keyed-retention.
#
# Usage: sh mutate.sh <repo checkout> <scratch dir> [pop]
#
# Copies the checkout's src/, tests/ and analysis_baseline.json into
# <scratch dir>, gives SoapServer a dict that SoapServer._run grows with
# each entry's tag (and, with "pop", a method that pops from it), and runs
# the CI gate there.  Expected: exit status 1 with one new finding, and 0
# with "pop".
set -e
repo=$1 dir=$2 mode=$3
rm -rf "$dir" && mkdir -p "$dir"
cp -r "$repo/src" "$repo/tests" "$repo/analysis_baseline.json" "$dir"/
cd "$dir"
python3 - "$mode" <<'PY'
import sys
path = "src/repro/server/soap_server.py"
text = open(path).read()
text = text.replace(
    "        self.registry = registry\n",
    "        self.registry = registry\n        self._seen: dict[str, object] = {}\n", 1)
run = "        record = entry.operation\n        if record is None:  # not deployed"
assert run in text
text = text.replace(run, "        self._seen[entry.tag] = entry\n" + run, 1)
if sys.argv[1] == "pop":
    text = text.replace(
        "    def _skipped(self",
        "    def _forget(self, tag: str) -> None:\n        self._seen.pop(tag, None)\n\n"
        "    def _skipped(self", 1)
open(path, "w").write(text)
PY
PYTHONPATH="$PWD/src" python3 -m repro.analysis check src tests \
  --baseline analysis_baseline.json > check.out && status=0 || status=$?
grep -v "^   " check.out
echo "exit status: $status"
