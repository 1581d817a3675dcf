"""The benchmark's one command.

    python3 perf/run.py --seed 1                      # all five workloads (open_mix: diagnostic), both runs
    python3 perf/run.py --workload pack_small --seed 3 --seconds 24 --trace 0
    python3 perf/run.py --quick                       # crash detector, < 30 s

(``PYTHONPATH=src python -m perf.run`` is the same program.)  It starts the
servers in this process on loopback TCP, drives the workloads from this
process, checks every response, prints every metric with its unit and writes
``perf/out/result.json`` plus one ``perf/out/trace_<workload>.jsonl`` per
traced workload.  With exactly one ``--workload`` and ``--trace 0|1`` the
last line of standard output is the driver's JSON object.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perf" / "out"
WATCHDOG_S = 170  # per workload; the driver allows a one-workload run 180 s


def _bootstrap() -> None:
    """Make ``repro`` and ``perf`` importable; fix the hash seed and the CPU."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("perf: src/repro not found beside perf/ - run from a full checkout")
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for client, server and load generator: the GIL serialises
        # them anyway, and unpinned runs were 30 % slower and bimodal (the
        # client/server ping-pong sometimes crossed cores, sometimes not).
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _parse_inject(text: str) -> int:
    name, _, value = text.partition("=")
    if name != "execute_us" or not value.isdigit():
        raise argparse.ArgumentTypeError("expected execute_us=N")
    return int(value)


def parse_args(argv: list[str]) -> argparse.Namespace:
    # one number says how long a run measures: the one the bounds were taken at
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(prog="perf.run", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=1, help="drives the generated inputs only")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="timed seconds per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only; default both")
    parser.add_argument("--quick", action="store_true",
                        help="2 rounds x 1 s and 30 replay passes: a crash detector, not a measurement")
    parser.add_argument("--inject", type=_parse_inject, default=0, metavar="execute_us=N",
                        help="spin N microseconds in every service call (sensitivity self-check)")
    return parser.parse_args(argv)


def _format(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def report(name: str, entry: dict, units: dict) -> None:
    """Print one workload's metrics, one per line, with units."""
    from perf import workloads

    gated = workloads.WORKLOADS[name].gated
    print(f"\n== {name} ==" + ("" if gated else "  (diagnostic: not in BENCHMARK.json, held to no bound)"))
    e2e = entry["end_to_end"]
    diag = entry["diagnostics"]
    for metric, value in e2e.items():
        note = ""
        if metric.startswith("rt_"):
            note = f"  (n={diag['samples']}, at least {diag['samples_per_round']} a round)"
        print(f"  {metric:34} {_format(value):>14} {units[metric]}{note}")
    print(f"  {'failed_share':34} {_format(diag['failed_share']):>14} ratio"
          f"  ({diag['failed']} of {diag['attempted']})")
    if "per_layer" not in entry:  # there it is bench.setup_cold_s
        print(f"  {'setup_cold_s':34} {_format(diag['setup_cold_s']):>14} s"
              "  (the first set-up; setup_s is the median of all)")
    if not diag["valid"]:
        print(f"  INVALID: the backlog grew in {diag['rounds_with_growing_backlog']} rounds - "
              "the offered rate is above what the system completes")
    for error in diag["errors"]:
        print(f"  failure: {error}")
    for metric, value in entry.get("per_layer", {}).items():
        note = ""
        if metric == "bench.unattributed_share":
            note = f"  (of {_format(diag.get('reference_rt_ms'))} ms: rt_p50_raw_ms, the unscaled round trip)"
        print(f"  {metric:34} {_format(value):>14} {units[metric]}{note}")
    for probe, reason in entry.get("missing_probes", {}).items():
        print(f"  missing probe {probe}: {reason}")


def workload_entry(name: str, run, traced: bool) -> dict:
    """One workload's section of ``result.json``."""
    from perf import bench, metrics, workloads

    measured = bench.end_to_end(run)
    declared = {**metrics.END_TO_END, **metrics.PER_LAYER}
    entry = {
        "why": workloads.WORKLOADS[name].why,
        "end_to_end": {metric: measured.get(metric) for metric in metrics.END_TO_END},
        "diagnostics": {k: v for k, v in measured.items() if k not in declared},
    }
    if traced:
        layer = {**run.per_layer, **measured}  # loadgen.* come from the rounds
        entry["per_layer"] = {metric: layer.get(metric) for metric in metrics.PER_LAYER}
        entry["missing_probes"] = run.missing
        entry["diagnostics"]["replay_passes"] = run.passes
        entry["diagnostics"]["replay_matches_wire"] = run.replay_matches_wire
    diagnostics = entry["diagnostics"]
    entry["ok"] = (
        not diagnostics["failed"]
        and diagnostics["valid"]
        and None not in entry["end_to_end"].values()
    )
    return entry


def driver_line(entry: dict, trace: int, units: dict) -> dict:
    """The JSON object the benchmark's driver reads from the last line.

    It takes numbers only, so a switched-off probe prints 0 there — and the
    line says ``correct: false``: every per-layer time is lower-is-better, and
    a hole must not pass for a layer that got faster.
    """
    chosen = entry["end_to_end"] if trace == 0 else entry["per_layer"]
    return {
        "correct": entry["ok"] and None not in chosen.values(),
        "attempted": entry["diagnostics"]["attempted"],
        "failed": entry["diagnostics"]["failed"],
        "metrics": {
            metric: {"value": 0.0 if value is None else value, "unit": units[metric]}
            for metric, value in chosen.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    _bootstrap()
    args = parse_args(sys.argv[1:] if argv is None else argv)

    from perf import bench, metrics, spans, workloads

    names = args.workload or list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        sys.exit(f"perf: unknown workload(s) {unknown}; have {list(workloads.WORKLOADS)}")

    # a hung server must not hang the driver: dump the stacks and exit
    faulthandler.dump_traceback_later(WATCHDOG_S * len(names), exit=True)
    plan = bench.Plan.make(args.seconds, args.trace, args.quick)
    runs = bench.run(names, args.seed, plan, args.inject)

    traced = plan.traced_s is not None
    units = {name: unit for name, (unit, _) in {**metrics.END_TO_END, **metrics.PER_LAYER}.items()}
    entries = {name: workload_entry(name, run, traced) for name, run in runs.items()}
    ok = all(entry["ok"] for entry in entries.values())
    OUT.mkdir(parents=True, exist_ok=True)
    for name, entry in entries.items():
        report(name, entry, units)
        if traced:
            spans.write_jsonl(OUT / f"trace_{name}.jsonl", runs[name].spans)
    document = {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "inject_execute_us": args.inject,
        "plan": vars(plan),
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "workloads": entries,
        "missing_probes": sorted(
            {probe for entry in entries.values() for probe in entry.get("missing_probes", {})}
        ),
    }
    (OUT / "result.json").write_text(json.dumps(document, indent=2) + "\n")

    if len(names) == 1 and args.trace is not None:
        line = driver_line(entries[names[0]], args.trace, units)
        ok = line["correct"]
        print(json.dumps(line))
    elif not ok:
        print("\nFAILED: a workload had failures, an invalid open loop or no samples")
    faulthandler.cancel_dump_traceback_later()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
