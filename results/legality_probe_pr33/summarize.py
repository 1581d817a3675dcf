"""Table the pairs that pairs.sh kept: medians, quartiles, pairs won.

Usage: python3 summarize.py <out dir>

Reads <out dir>/<seed>-parent.json and <seed>-change.json (perf/run.py's
result.json) and prints one markdown row per workload and end-to-end
metric, then each pair's rt_p50_ms change in percent.
"""

import json
import pathlib
import statistics
import sys

WORKLOADS = ("pack_small", "pack_large", "pack_records", "single_small")
METRICS = {  # metric -> True when higher is better
    "setup_s": False,
    "rt_p50_ms": False,
    "rt_p90_ms": False,
    "calls_per_s": True,
    "cpu_ms_per_call": False,
    "wire_bytes_per_call": False,
}


def load(out: pathlib.Path) -> dict[int, dict[str, dict]]:
    pairs: dict[int, dict[str, dict]] = {}
    for path in out.glob("*-*.json"):
        seed, side = path.stem.split("-")
        pairs.setdefault(int(seed), {})[side] = json.loads(path.read_text())["workloads"]
    return {seed: sides for seed, sides in sorted(pairs.items()) if len(sides) == 2}


def fmt(value: float) -> str:
    return f"{value:.4g}"


def main(out: str) -> None:
    pairs = load(pathlib.Path(out))
    print(f"{len(pairs)} pairs: seeds {sorted(pairs)}\n")
    print("| workload | metric | parent median (q1-q3) | change median (q1-q3) | change vs parent | pairs won by change |")
    print("|---|---|---|---|---|---|")
    for workload in WORKLOADS:
        for metric, higher in METRICS.items():
            values = {
                side: [pairs[s][side][workload]["end_to_end"][metric] for s in pairs]
                for side in ("parent", "change")
            }
            cells = []
            for side in ("parent", "change"):
                q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
                cells.append(f"{fmt(median)} ({fmt(q1)}-{fmt(q3)})")
            parent_median = statistics.median(values["parent"])
            change = (statistics.median(values["change"]) / parent_median - 1) * 100
            won = sum(
                (c > p) if higher else (c < p)
                for p, c in zip(values["parent"], values["change"])
            )
            ties = sum(p == c for p, c in zip(values["parent"], values["change"]))
            tie_note = f" ({ties} ties)" if ties else ""
            print(f"| `{workload}` | `{metric}` | {cells[0]} | {cells[1]} | {change:+.1f} % | {won} of {len(pairs)}{tie_note} |")
    print()
    for workload in WORKLOADS:
        steps = [
            (pairs[s]["change"][workload]["end_to_end"]["rt_p50_ms"]
             / pairs[s]["parent"][workload]["end_to_end"]["rt_p50_ms"] - 1) * 100
            for s in pairs
        ]
        failed = [
            pairs[s][side][workload]["diagnostics"]["failed_share"]
            for s in pairs for side in ("parent", "change")
        ]
        print(f"{workload} rt_p50_ms per pair (%): {', '.join(f'{x:+.1f}' for x in steps)}; "
              f"max failed_share {max(failed)}")


if __name__ == "__main__":
    main(sys.argv[1])
