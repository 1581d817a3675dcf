"""The paper's figures: testbeds, one timer, one engine.

Run ``python -m repro.bench all`` to regenerate every evaluation
artifact of the paper (:mod:`repro.bench.figures`);
``benchmarks/test_claims.py`` asserts the ratios it produces.  How fast
this stack is, as opposed to what shape the paper's result has, is
measured by ``perf/run.py``, not here.
"""

from repro.bench.harness import Measurement, measure, speedup
from repro.bench.report import FigureResult, ScalarResult
from repro.bench.workloads import (
    APPROACHES,
    Testbed,
    build_transport,
    echo_calls,
    echo_testbed,
    make_invoker,
    run_point,
)

__all__ = [
    "APPROACHES",
    "FigureResult",
    "Measurement",
    "ScalarResult",
    "Testbed",
    "build_transport",
    "echo_calls",
    "echo_testbed",
    "make_invoker",
    "measure",
    "run_point",
    "speedup",
]
