"""Static analysis for the repro codebase, from scratch on :mod:`ast`.

The reproduction grew real concurrency (bounded thread pools and
stages), a determinism contract (injected clock/rng/sleep) and two
rounds of API migration — invariants that were enforced only by
convention.  This package checks them (Gordon & Pucella's argument for
typing a SOAP security abstraction, applied as linting).  There is one
kind of check, one pass and one command:

* :mod:`repro.analysis.engine` — the :class:`~repro.analysis.engine.Rule`
  interface and :func:`check`, the one entry point: it parses the
  files (or in-memory sources), builds the call graph when a rule reads
  it, runs every rule once and applies path scoping and inline
  ``# repro: disable=<rule-id>`` suppression to every finding;
* :mod:`repro.analysis.rules` — the lint pack (wall-clock durations,
  direct sleep/random, ``__slots__`` on hot-path records, unbounded
  queues, swallowed faults) and :data:`RULES`, every rule in report
  order;
* :mod:`repro.analysis.locks` — lock discipline: per-class dataflow
  over ``self`` attributes mutated inside vs. outside ``with
  self._lock`` blocks, plus lock-order inversion detection;
* :mod:`repro.analysis.callgraph` — whole-program call-graph
  construction (imports, method dispatch, ``self.``-attribute and
  annotation typing, assignment aliasing, escaped function refs);
* :mod:`repro.analysis.taint` — the four whole-program rules over the
  graph: transitive may-block on the event loop, wall-clock taint in
  clock-disciplined code, fault-flow escape on dispatch paths, and
  request-keyed retention in objects that outlive a request;
* :mod:`repro.analysis.baseline` — the committed-baseline gate: frozen
  pre-existing findings with reason strings; a *new* finding or a
  *stale* entry fails;
* :mod:`repro.analysis.cli` — ``python -m repro.analysis check|baseline|rules``.
"""

from repro.analysis.cli import main
from repro.analysis.engine import check
from repro.analysis.rules import RULES

__all__ = ["RULES", "check", "main"]
