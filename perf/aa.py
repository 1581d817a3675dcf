"""A/A tool: run the same commit N times, derive the bounds, hold them.

    python3 perf/aa.py --runs 10

Runs the benchmark the way its driver does — one process per workload and
seed, ``--trace 0``, ``run_seconds`` from ``BENCHMARK.json`` — interleaving
the workloads so drift is shared.  Prints, per metric and workload, the median,
the quartiles, the quartile distance as a share of the median (what the driver
holds against the bound) and the worst relative deviation from the median, and
appends them to the records in ``perf/aa_spread.json`` (this box is calm one
hour and noisy the next; one A/A does not show both) with the bounds that all
records together give:

    bound(metric) = max(0.05, 1.5 x worst deviation, 3 x quartile distance)

over the workloads and records, rounded up to a whole per cent.  The first two terms are
the issue's rule; the third is the driver's: it refuses a benchmark whose
quartile distance exceeds a bound and wants it below a third of one.  The
driver takes no bound above 0.25; a pairing whose worst deviation asks for more
is *unresolved*: on this box one run against one run can neither show nor rule
out a change to that metric on that workload within the bound (medians of ten
can).  ``setup_s`` gets the largest bound, ``wire_bytes_per_call`` keeps its
fixed one (it must repeat exactly).  Delete the file when the way a metric is
measured changes.

Exits 1 if a bound in ``BENCHMARK.json`` is tighter than the one derived, if a
quartile distance of this A/A exceeds its bound (the driver would refuse the
benchmark), if a pairing is unresolved, if ``wire_bytes_per_call`` differs
between seeds, or if any operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perf import stats  # noqa: E402  (needs ROOT on the path; imports no repro)

SPREAD_FILE = ROOT / "perf" / "aa_spread.json"
FLOOR = 0.05
CAP = 0.25  # the widest bound the driver takes
EXACT = "wire_bytes_per_call"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One driver-style run; returns the JSON object of its last line."""
    command = [
        sys.executable, str(ROOT / "perf" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def derive_bounds(spreads: list[dict], exact_bound: float) -> tuple[dict[str, float], list[str]]:
    """``(bound per metric, unresolved pairings)`` from spread records (each
    workload -> metric -> row with ``worst_deviation_share`` and
    ``iqr_share``)."""
    asked: dict[str, float] = {}
    unresolved = []
    for spread in spreads:
        for workload, rows in spread.items():
            for metric, row in rows.items():
                if metric == EXACT:
                    continue
                rule = max(FLOOR, 1.5 * row["worst_deviation_share"], 3 * row["iqr_share"])
                asked[metric] = max(asked.get(metric, 0.0), rule)
                pairing = f"{workload} {metric}"
                if 1.5 * row["worst_deviation_share"] > CAP and pairing not in unresolved:
                    unresolved.append(pairing)
    bounds = {
        metric: min(math.ceil(100 * rule - 1e-9) / 100, CAP) for metric, rule in asked.items()
    }
    bounds["setup_s"] = max(bounds.values())
    bounds[EXACT] = exact_bound
    return bounds, unresolved


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    committed = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    runs = parser.parse_args().runs

    values: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    failed = 0
    for seed in range(1, runs + 1):
        for name in names:
            result = run_once(name, seed, benchmark["run_seconds"])
            failed += result["failed"] + (not result["correct"])
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"seed {seed} {name}: " + "  ".join(
                f"{metric}={entry['value']:.4g}" for metric, entry in result["metrics"].items()
            ), flush=True)

    spread: dict[str, dict[str, dict]] = {}
    for name in names:
        spread[name] = {}
        for metric, series in values[name].items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread[name][metric] = {
                "median": statistics.median(series),
                "q1": q1,
                "q3": q3,
                "iqr_share": stats.iqr_share(series),
                "worst_deviation_share": stats.worst_deviation_share(series),
            }
    records = json.loads(SPREAD_FILE.read_text())["records"] if SPREAD_FILE.exists() else []
    records.append({"runs": runs, "seconds": benchmark["run_seconds"], "spread": spread})
    derived, unresolved = derive_bounds([r["spread"] for r in records], committed[EXACT])

    problems = [f"unresolved (1.5 x worst deviation is more than {CAP}): {pairing}"
                for pairing in unresolved]
    print(f"\n{'workload':14} {'metric':20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'worst':>8} {'bound':>6}")
    for name in names:
        for metric, row in spread[name].items():
            flag = ""
            if row["iqr_share"] > committed[metric]:
                flag = "  <-- quartile distance beyond the bound"
                problems.append(f"{name} {metric}: quartile distance {row['iqr_share']:.3f} "
                                f"> bound {committed[metric]}")
            elif row["iqr_share"] > committed[metric] / 3:
                flag = "  <-- wide (above a third of the bound)"
            if metric == EXACT and row["worst_deviation_share"] > 0:
                problems.append(f"{name} {EXACT} differs between seeds")
            print(f"{name:14} {metric:20} {row['median']:12.4f} {row['q1']:12.4f} "
                  f"{row['q3']:12.4f} {row['iqr_share']:8.3f} "
                  f"{row['worst_deviation_share']:8.3f} {committed[metric]:6.2f}{flag}")
    print(f"\nbounds from {len(records)} A/A records   " + "  ".join(f"{m}={b:.2f}" for m, b in derived.items()))
    for metric, bound in derived.items():
        if committed[metric] < bound:
            problems.append(f"BENCHMARK.json bounds {metric} at {committed[metric]}, "
                            f"this A/A derives {bound}")
    if failed:
        problems.append(f"{failed} failed operations or incorrect runs")
    SPREAD_FILE.write_text(json.dumps(
        {"records": records, "derived_bounds": derived, "unresolved": unresolved}, indent=2) + "\n")
    for problem in problems:
        print("PROBLEM:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
