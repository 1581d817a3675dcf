"""SLO budgets evaluated against live metrics snapshots.

A service-level objective here is a *budget on a number the telemetry
plane already produces*: "echo p99 under 250 ms", "shed rate EWMA
under 20%".  The config (``slo.json`` at the repo root) has one
section, ``"live"`` — budgets over a ``/metrics`` JSON snapshot:
``"targets"`` keyed by rollup target (``service#operation``) then
dotted path into the rollup snapshot (``latency_p99_s``,
``error_rate``, ``error_rate_by_class.shed``), and ``"sketches"`` keyed
by sketch name then dotted path (``quantiles.p99``).  This module's
CLI is the one evaluator: save a running server's ``GET /metrics``
document and check it.

Each budget is ``{"max": x}`` and/or ``{"min": y}``.  A metric the
snapshot does not carry is *skipped* (reported, not failed) unless
``strict`` — new budgets can land before the code that feeds them.

CLI::

    python -m repro.obs.slo check --config slo.json \
        --snapshot snap.json [--strict]

Exit status 0 when every evaluated budget holds, 1 on any bust, 2 on
usage/config errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Iterable


class SloCheck:
    """Outcome of one budget evaluation."""

    __slots__ = ("subject", "metric", "value", "bound", "kind", "ok", "skipped")

    def __init__(
        self,
        subject: str,
        metric: str,
        value: float | None,
        bound: float,
        kind: str,
        *,
        ok: bool,
        skipped: bool = False,
    ) -> None:
        self.subject = subject
        self.metric = metric
        self.value = value
        self.bound = bound
        self.kind = kind  # "max" | "min"
        self.ok = ok
        self.skipped = skipped

    def render(self) -> str:
        """One human-readable verdict line (``[ok]``/``[FAIL]``/``[SKIP]``)."""
        mark = "SKIP" if self.skipped else ("ok  " if self.ok else "FAIL")
        op = "<=" if self.kind == "max" else ">="
        shown = "absent" if self.value is None else f"{self.value:g}"
        return (
            f"[{mark}] {self.subject} :: {self.metric} = {shown} "
            f"(budget {op} {self.bound:g})"
        )

    def as_dict(self) -> dict:
        """JSON-friendly form (the per-check rows of :func:`summarize`)."""
        return {
            "subject": self.subject,
            "metric": self.metric,
            "value": self.value,
            "bound": self.bound,
            "kind": self.kind,
            "ok": self.ok,
            "skipped": self.skipped,
        }


def _lookup(doc: Any, dotted: str) -> float | None:
    """Resolve ``a.b.c`` into nested dicts; None when any hop is absent
    or the leaf is not a number."""
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def _eval_budget(
    subject: str, metric: str, value: float | None, budget: dict
) -> Iterable[SloCheck]:
    """One metric against its ``{"max": .., "min": ..}`` budget."""
    for kind in ("max", "min"):
        if kind not in budget:
            continue
        bound = float(budget[kind])
        if value is None:
            yield SloCheck(
                subject, metric, None, bound, kind, ok=True, skipped=True
            )
        elif kind == "max":
            yield SloCheck(subject, metric, value, bound, kind, ok=value <= bound)
        else:
            yield SloCheck(subject, metric, value, bound, kind, ok=value >= bound)


def evaluate_snapshot(config: dict, snapshot: dict) -> list[SloCheck]:
    """The ``"live"`` section against a ``/metrics``-shaped snapshot.

    ``snapshot`` is what ``Observability.metrics_snapshot()`` (or
    ``MetricsRegistry.snapshot()``) returns: rollups under
    ``"rollups"`` keyed ``service#operation``, sketches under
    ``"sketches"``.
    """
    live = config.get("live", {})
    rollups = snapshot.get("rollups", {})
    sketches = snapshot.get("sketches", {})
    checks: list[SloCheck] = []
    for target, target_budgets in sorted(live.get("targets", {}).items()):
        doc = rollups.get(target)
        for metric, budget in sorted(target_budgets.items()):
            value = _lookup(doc, metric) if doc is not None else None
            checks.extend(_eval_budget(f"live:{target}", metric, value, budget))
    for name, sketch_budgets in sorted(live.get("sketches", {}).items()):
        doc = sketches.get(name)
        for metric, budget in sorted(sketch_budgets.items()):
            value = _lookup(doc, metric) if doc is not None else None
            checks.extend(_eval_budget(f"live:{name}", metric, value, budget))
    return checks


def summarize(checks: list[SloCheck], *, strict: bool = False) -> dict:
    """The verdict document: counts + per-check rows."""
    failed = [c for c in checks if not c.ok]
    skipped = [c for c in checks if c.skipped]
    ok = not failed and not (strict and skipped)
    return {
        "ok": ok,
        "checks": len(checks),
        "failed": len(failed),
        "skipped": len(skipped),
        "results": [c.as_dict() for c in checks],
    }


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``check --config slo.json [...]``; exits 0/1/2."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.slo",
        description="Evaluate SLO budgets against a metrics snapshot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="evaluate budgets; exit 1 on a bust")
    check.add_argument("--config", required=True, help="slo.json path")
    check.add_argument(
        "--snapshot", help="a /metrics JSON snapshot to gate on"
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help="treat skipped (absent-metric) budgets as failures",
    )
    args = parser.parse_args(argv)

    try:
        config = _load_json(args.config)
    except (OSError, ValueError) as exc:
        print(f"slo: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2

    checks: list[SloCheck] = []
    if args.snapshot:
        try:
            snapshot = _load_json(args.snapshot)
        except (OSError, ValueError) as exc:
            print(
                f"slo: cannot read snapshot {args.snapshot}: {exc}",
                file=sys.stderr,
            )
            return 2
        checks.extend(evaluate_snapshot(config, snapshot))
    if not checks:
        print("slo: nothing to evaluate (pass --snapshot)", file=sys.stderr)
        return 2

    for result in checks:
        print(result.render())
    verdict = summarize(checks, strict=args.strict)
    print(
        f"slo: {verdict['checks']} checks, {verdict['failed']} failed, "
        f"{verdict['skipped']} skipped -> {'OK' if verdict['ok'] else 'BUST'}"
    )
    return 0 if verdict["ok"] else 1


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
