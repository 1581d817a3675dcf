"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench fig5 [--profile lan] [--fast]
    python -m repro.bench fig6
    python -m repro.bench fig7
    python -m repro.bench travel
    python -m repro.bench wss
    python -m repro.bench arch
    python -m repro.bench relatedwork
    python -m repro.bench all [--fast]

Profiles: lan (paper's 100 Mbit Ethernet emulation, default), wan,
loopback (bare TCP), inproc (no sockets).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import figures
from repro.bench.figures import FAST_M_SWEEP


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the CLUSTER'06 SPI paper's evaluation artifacts.",
    )
    parser.add_argument(
        "experiment",
        choices=["fig5", "fig6", "fig7", "travel", "wss", "arch", "relatedwork", "all"],
    )
    parser.add_argument(
        "--profile",
        default="lan",
        choices=["inproc", "loopback", "lan", "wan"],
        help="transport profile (default: lan = paper testbed emulation)",
    )
    parser.add_argument(
        "--fast", action="store_true", help="reduced M sweep and repeats"
    )
    parser.add_argument(
        "--format",
        default="table",
        choices=["table", "markdown", "json"],
        help="output format (default: ascii table)",
    )
    args = parser.parse_args(argv)

    kwargs: dict = {"profile": args.profile}
    if args.experiment == "fig5":
        results = [figures.figure5(m_values=FAST_M_SWEEP if args.fast else None, **kwargs)]
    elif args.experiment == "fig6":
        results = [figures.figure6(m_values=FAST_M_SWEEP if args.fast else None, **kwargs)]
    elif args.experiment == "fig7":
        results = [
            figures.figure7(m_values=[1, 8, 16] if args.fast else None, **kwargs)
        ]
    elif args.experiment == "travel":
        results = [figures.travel_agent_experiment(repeats=3 if args.fast else 10, **kwargs)]
    elif args.experiment == "wss":
        results = [figures.wssecurity_ablation(**kwargs)]
    elif args.experiment == "arch":
        results = [figures.arch_ablation(**kwargs)]
    elif args.experiment == "relatedwork":
        results = [figures.relatedwork_ablation(iterations=50 if args.fast else 200)]
    else:
        results = figures.all_experiments(fast=args.fast, profile=args.profile)

    if args.format == "json":
        import json

        print(json.dumps([r.as_dict() for r in results], indent=2))
    else:
        render = (
            (lambda r: r.to_markdown()) if args.format == "markdown"
            else (lambda r: r.to_table())
        )
        for result in results:
            print()
            print(render(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
