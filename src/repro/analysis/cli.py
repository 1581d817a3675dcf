"""``python -m repro.analysis`` — the checker's command line.

Commands:

* ``check <paths> [--baseline FILE] [--format text|json]`` — run every
  rule over the paths, compare against the baseline, exit 1 on any
  *new* finding or *stale* baseline entry.  The text report prints each
  new finding with its fix hint and ends with the per-rule counts; the
  json report carries every finding with its witness chain.
* ``baseline <paths> [-o FILE]`` — regenerate the baseline from the
  current findings, preserving reason strings for surviving entries.
* ``rules`` — list rule ids, severities, scopes and rationales.

CI runs ``check src tests --baseline analysis_baseline.json`` once: the
lint pack, lock discipline and the four whole-program rules, over one
call graph of all analyzed files.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    compare,
    entries_from_findings,
    load_baseline,
    save_baseline,
)
from repro.analysis.engine import check
from repro.analysis.rules import RULES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-driven project linter and concurrency-safety analyzer",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check_cmd = commands.add_parser(
        "check", help="run all rules, gate on new findings and stale entries"
    )
    check_cmd.add_argument("paths", nargs="+", help="files or directories to analyze")
    check_cmd.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file of frozen findings (e.g. {DEFAULT_BASELINE_NAME})",
    )
    check_cmd.add_argument(
        "--format", choices=("text", "json"), default="text", dest="output_format"
    )

    baseline = commands.add_parser(
        "baseline", help="regenerate the baseline from current findings"
    )
    baseline.add_argument("paths", nargs="+")
    baseline.add_argument(
        "-o", "--output", default=DEFAULT_BASELINE_NAME, help="baseline file to write"
    )

    commands.add_parser("rules", help="list every rule with its rationale")
    return parser


def _cmd_check(args: argparse.Namespace) -> int:
    findings = check(args.paths, RULES)
    entries = []
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"error: baseline file {baseline_path} not found", file=sys.stderr)
            return 2
        try:
            entries = load_baseline(baseline_path)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"error: unreadable baseline: {exc}", file=sys.stderr)
            return 2
    result = compare(findings, entries)

    if args.output_format == "json":
        document = {
            "new": [f.as_dict() for f in result.new],
            "baselined": [f.as_dict() for f in result.baselined],
            "stale_baseline_entries": [e.as_dict() for e in result.stale],
            "ok": result.ok,
        }
        print(json.dumps(document, indent=2))
        return 0 if result.ok else 1

    if result.stale:
        print(
            f"-- {len(result.stale)} stale baseline entr(y/ies) no longer match: "
            "the change that fixed a finding removes its entry (or regenerate "
            "with 'python -m repro.analysis baseline')"
        )
        for entry in result.stale:
            print(f"   {entry.path}: {entry.rule}: {entry.message}")
    if result.new:
        print(f"-- {len(result.new)} NEW finding(s):")
        for finding in result.new:
            print(finding.format(hints=True))
        print(
            "\nfix the finding, silence it inline with "
            "'# repro: disable=<rule-id>', or (for accepted debt) add a "
            "baseline entry with a reason"
        )
    counts = Counter(f.rule_id for f in findings)
    new_counts = Counter(f.rule_id for f in result.new)
    print("-- findings per rule:")
    for rule in RULES:
        print(
            f"   {rule.id} [{rule.severity}]: {counts[rule.id]} "
            f"({new_counts[rule.id]} new)"
        )
    if not result.ok:
        return 1
    suffix = f", {len(result.baselined)} frozen by baseline" if args.baseline else ""
    print(f"analysis clean: no new findings{suffix}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    findings = check(args.paths, RULES)
    output = Path(args.output)
    previous = []
    if output.exists():
        try:
            previous = load_baseline(output)
        except (ValueError, KeyError, json.JSONDecodeError):
            previous = []
    entries = entries_from_findings(findings, previous=previous)
    save_baseline(entries, output)
    kept = sum(1 for entry in entries if entry.reason)
    print(
        f"wrote {output} with {len(entries)} entr(y/ies) "
        f"({kept} carrying reasons); fill in 'reason' for each accepted finding"
    )
    return 0


def _cmd_rules(_: argparse.Namespace) -> int:
    for rule in RULES:
        suffix = " (whole program)" if rule.uses_graph else ""
        print(f"{rule.id} [{rule.severity}]{suffix}")
        print(f"    {rule.rationale}")
        if rule.exempt_parts:
            print(f"    exempt path parts: {', '.join(sorted(rule.exempt_parts))}")
        if rule.only_parts:
            print(f"    only path parts: {', '.join(sorted(rule.only_parts))}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.analysis``."""
    args = _build_parser().parse_args(argv)
    handler = {
        "check": _cmd_check,
        "baseline": _cmd_baseline,
        "rules": _cmd_rules,
    }[args.command]
    return handler(args)
