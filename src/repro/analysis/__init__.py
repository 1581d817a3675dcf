"""Static analysis for the repro codebase, from scratch on :mod:`ast`.

The reproduction grew real concurrency (bounded thread pools and
stages), a determinism contract (injected clock/rng/sleep) and two
rounds of API migration — invariants that were enforced only by
convention.  This package checks them (Gordon & Pucella's argument for
typing a SOAP security abstraction, applied as linting):

* :mod:`repro.analysis.engine` — rule engine, visitor dispatch,
  inline ``# repro: disable=<rule-id>`` suppression;
* :mod:`repro.analysis.rules` — the repo-specific lint pack
  (wall-clock durations, direct sleep/random,
  ``__slots__`` on hot-path records, unbounded queues, bare/swallowing
  excepts);
* :mod:`repro.analysis.locks` — the lock-discipline analyzer: per-class
  dataflow over ``self`` attributes mutated inside vs. outside
  ``with self._lock`` blocks, plus lock-order inversion detection;
* :mod:`repro.analysis.callgraph` — whole-program call-graph
  construction (imports, method dispatch, ``self.``-attribute and
  annotation typing, assignment aliasing, escaped function refs);
* :mod:`repro.analysis.taint` — interprocedural fact propagation over
  the graph: transitive may-block on the event loop, wall-clock taint
  in clock-disciplined code, and fault-flow escape on dispatch paths;
* :mod:`repro.analysis.baseline` — the committed-baseline gate: frozen
  pre-existing findings with reason strings, any *new* finding fails;
* :mod:`repro.analysis.cli` — ``python -m repro.analysis check ...``.
"""

from repro.analysis.baseline import (
    BaselineEntry,
    BaselineResult,
    compare,
    entries_from_findings,
    load_baseline,
    save_baseline,
)
from repro.analysis.callgraph import (
    CallGraph,
    ModuleSource,
    build_call_graph,
    module_name_for_path,
)
from repro.analysis.cli import default_rules, main
from repro.analysis.engine import Rule, check_paths, check_source
from repro.analysis.taint import (
    FaultFlowEscape,
    MayBlockOnLoop,
    ProjectAnalysis,
    WallclockTaint,
    project_analyses,
)
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.locks import (
    ClassLockReport,
    LockDiscipline,
    analyze_module,
    format_lock_report,
)
from repro.analysis.rules import HOT_PATH_CLASSES, lint_rules

__all__ = [
    "BaselineEntry",
    "BaselineResult",
    "CallGraph",
    "ClassLockReport",
    "FaultFlowEscape",
    "Finding",
    "HOT_PATH_CLASSES",
    "LockDiscipline",
    "MayBlockOnLoop",
    "ModuleSource",
    "ProjectAnalysis",
    "Rule",
    "WallclockTaint",
    "analyze_module",
    "build_call_graph",
    "check_paths",
    "check_source",
    "compare",
    "default_rules",
    "entries_from_findings",
    "format_lock_report",
    "lint_rules",
    "load_baseline",
    "main",
    "module_name_for_path",
    "project_analyses",
    "save_baseline",
    "sort_findings",
]
