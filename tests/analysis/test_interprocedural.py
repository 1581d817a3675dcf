"""Golden tests for the interprocedural analyses.

Each corpus under ``fixtures/callgraph/`` is a mini-package: a positive
twin that must produce exactly the expected finding with its full
witness chain, and a negative twin of the same call shape that must be
clean.  The corpora double as integration tests for the call-graph
resolution features (aliasing, instance bindings, ref escapes, cycles).
"""

import ast
import json
import time
from pathlib import Path

import repro.analysis.callgraph as callgraph
from repro.analysis import RULES, check, main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
GRAPH_RULES = [rule for rule in RULES if rule.uses_graph]


def corpus_findings(case: str):
    """Run only the whole-program rules over one mini-package."""
    return check([FIXTURES / "callgraph" / case], GRAPH_RULES, root=FIXTURES)


class TestMayBlock:
    def test_sleep_three_calls_below_a_loop_callback_is_caught(self):
        findings = corpus_findings("loop_pos")
        assert [f.rule_id for f in findings] == [
            "may-block-on-event-loop-transitive"
        ]
        finding = findings[0]
        # the sink is reported where it lives, two modules away
        assert finding.path == "callgraph/loop_pos/util.py"
        assert "time.sleep()" in finding.message
        # the full chain crosses the alias, the method dispatch and the
        # module boundary
        assert finding.chain == (
            "EventedHttpServer._run_loop",
            "EventedHttpServer._connection_ready",
            "EventedHttpServer._on_readable",
            "EventedHttpServer._report",
            "flush_metrics",
            "push_upstream",
        )
        assert " -> ".join(finding.chain) in finding.message

    def test_injected_clock_twin_is_clean(self):
        # same call shape, worker-side sleep behind a ref edge, a
        # recursion cycle, and a pragma barrier: all legal
        assert corpus_findings("loop_neg") == []

    def test_chain_travels_in_json_output(self):
        finding = corpus_findings("loop_pos")[0]
        document = finding.as_dict()
        assert document["chain"][0] == "EventedHttpServer._run_loop"
        assert document["chain"][-1] == "push_upstream"

    def test_seed_line_suppression_silences_the_finding(self, tmp_path):
        # copy the corpus, pragma the sink line
        corpus = FIXTURES / "callgraph" / "loop_pos"
        target = tmp_path / "loop_pos"
        target.mkdir()
        for source in corpus.glob("*.py"):
            text = source.read_text()
            if source.name == "util.py":
                text = text.replace(
                    "time.sleep(0.05)",
                    "time.sleep(0.05)  # repro: disable=may-block-on-event-loop-transitive",
                )
            (target / source.name).write_text(text)
        assert check([target], GRAPH_RULES, root=tmp_path) == []


class TestWallclockTaint:
    def test_helper_hiding_a_clock_read_is_caught_in_rollup_code(self):
        findings = corpus_findings("wallclock_pos")
        assert [f.rule_id for f in findings] == ["wallclock-taint"]
        finding = findings[0]
        assert finding.path == "callgraph/wallclock_pos/policy.py"
        assert finding.chain == (
            "DecayTimer.should_fold",
            "elapsed_since",
            "now_seconds",
        )
        assert "time.time()" in finding.message

    def test_injected_clock_twin_is_clean(self):
        assert corpus_findings("wallclock_neg") == []

    def test_clock_reads_outside_disciplined_files_are_legal(self):
        # the same taint reaching an undisciplined file is nobody's business
        findings = check(
            [FIXTURES / "callgraph" / "wallclock_pos" / "util.py"],
            GRAPH_RULES,
            root=FIXTURES,
        )
        assert findings == []


class TestFaultFlow:
    def test_unclassified_raise_two_calls_down_is_caught(self):
        findings = corpus_findings("fault_pos")
        assert [f.rule_id for f in findings] == ["fault-flow-escape"]
        finding = findings[0]
        assert "DeepFaultError" in finding.message
        assert finding.chain == (
            "SoapEndpoint.__call__",
            "SoapEndpoint._dispatch",
            "SoapEndpoint._decode",
        )

    def test_catching_the_base_class_absorbs_the_hierarchy(self):
        assert corpus_findings("fault_neg") == []


class TestRequestKeyedRetention:
    def test_the_rollup_leak_is_caught(self):
        # reduced copies of SoapServer._rollup_for and MetricsRegistry.rollup
        # as they leaked (keyed by the operation names a client sent), and a
        # client keeping what servers send
        findings = corpus_findings("retention_pos")
        assert {f.rule_id for f in findings} == {"request-keyed-retention"}
        assert all(f.severity == "error" for f in findings)
        chains = {f.message.split(" grows ")[0]: f.chain for f in findings}
        rollup = ("SoapServer._execute", "SoapServer._skipped", "SoapServer._rollup_for")
        assert chains == {
            "SoapServer._rollups": rollup,
            "MetricsRegistry._rollups": rollup + ("MetricsRegistry.rollup",),
            "ServiceProxy._faults_seen": ("ServiceProxy.exchange", "ServiceProxy._note"),
        }
        # reported where the container is made, so a pragma sits beside it
        registry = next(f for f in findings if f.path.endswith("registry.py"))
        source = (FIXTURES / "callgraph" / "retention_pos" / "registry.py").read_text()
        assert source.splitlines()[registry.line - 1].strip() == "self._rollups = {}"

    def test_bounded_twins_are_clean(self):
        # ServiceContainer.deploy's table (no entry reaches deploy), a
        # per-document scanner memo and a dict keyed only by a literal, all
        # touched from the same entry (bounded caches and span buffers:
        # test_rules.py's cache_neg.py and span_store_neg.py)
        assert corpus_findings("retention_neg") == []


class TestWithBlocks:
    def test_exit_of_a_with_block_is_reached(self):
        # _execute never names Tracer._finish: the span handle's __exit__
        # calls it, reached through Tracer.span's return annotation
        findings = corpus_findings("with_pos")
        assert [f.rule_id for f in findings] == ["request-keyed-retention"]
        assert findings[0].path == "callgraph/with_pos/tracing.py"
        assert findings[0].chain == (
            "SoapServer._execute",
            "_SpanHandle.__exit__",
            "Tracer._finish",
        )

    def test_bounded_twin_is_clean(self):
        assert corpus_findings("with_neg") == []

    def test_enter_and_exit_edges_come_from_the_with_item(self):
        sources = [
            callgraph.ModuleSource(path=path.relative_to(FIXTURES).as_posix(),
                                   tree=ast.parse(path.read_text()))
            for path in sorted((FIXTURES / "callgraph" / "with_pos").glob("*.py"))
        ]
        graph = callgraph.build_call_graph(sources)
        callees = {
            edge.callee.split(".", 3)[-1]
            for edge in graph.edges_out("callgraph.with_pos.soap_server.SoapServer._execute")
        }
        assert callees == {"_SpanHandle.__enter__", "_SpanHandle.__exit__", "Tracer.span"}


class TestCliIntegration:
    def test_check_json_output_carries_chains(self, monkeypatch, capsys):
        monkeypatch.chdir(FIXTURES)
        exit_code = main(["check", "callgraph/loop_pos", "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        interprocedural = [
            f
            for f in document["new"]
            if f["rule"] == "may-block-on-event-loop-transitive"
        ]
        assert len(interprocedural) == 1
        assert interprocedural[0]["chain"][0] == "EventedHttpServer._run_loop"


class TestOnePass:
    def test_the_graph_is_built_once_and_only_for_a_rule_that_reads_it(
        self, monkeypatch
    ):
        builds = []
        real_build = callgraph.build_call_graph

        def counting_build(sources):
            builds.append(1)
            return real_build(sources)

        monkeypatch.setattr(callgraph, "build_call_graph", counting_build)
        corpus = [FIXTURES / "callgraph" / "loop_pos"]
        check(corpus, [rule for rule in RULES if not rule.uses_graph], root=FIXTURES)
        assert builds == []
        assert check(corpus, RULES, root=FIXTURES) != []
        assert builds == [1]

    def test_suppression_applies_to_every_rule_alike(self, tmp_path):
        # the engine, not the rule, drops a pragma'd finding: a wall-clock
        # read in a clock-disciplined file, silenced for both rules it trips
        target = tmp_path / "policy.py"
        target.write_text(
            "import time\n\n\ndef now():\n"
            "    return time.time()  "
            "# repro: disable=wallclock-taint,no-wallclock-duration\n"
        )
        assert check([target], RULES, root=tmp_path) == []
        target.write_text(target.read_text().split("  #")[0] + "\n")
        assert {f.rule_id for f in check([target], RULES, root=tmp_path)} == {
            "no-wallclock-duration",
            "wallclock-taint",
        }


class TestRuntimeBudget:
    def test_full_gate_over_src_stays_inside_the_ci_budget(self, monkeypatch):
        # CI asserts < 30s; locally the whole gate (per-module rules,
        # graph build, three fixpoints) should be far under that even
        # on a slow runner — use half the budget as the tripwire.
        monkeypatch.chdir(REPO_ROOT)
        start = time.monotonic()
        main(["check", "src", "--baseline", str(REPO_ROOT / "analysis_baseline.json")])
        elapsed = time.monotonic() - start
        assert elapsed < 15, f"analysis gate took {elapsed:.1f}s on src/"


def test_interprocedural_findings_do_not_depend_on_walk_order():
    # determinism: two runs over the same corpus yield identical
    # findings (fingerprints feed the committed baseline)
    first = [f.fingerprint for f in corpus_findings("loop_pos")]
    second = [f.fingerprint for f in corpus_findings("loop_pos")]
    assert first == second
