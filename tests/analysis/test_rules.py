"""Golden-finding tests: one positive and one negative fixture per rule.

The corpus lives in ``fixtures/`` (excluded from implicit directory
walks); tests hand the engine explicit file paths with ``root`` set to
the corpus directory, so fixture paths carry no ``tests`` segment and
rules that exempt ``tests`` still apply.

The event-loop and clock-discipline invariants are owned by the
interprocedural pack (``may-block-on-event-loop-transitive``,
``wallclock-taint``); their single-file fixtures live here beside the
per-module ones.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    MayBlockOnLoop,
    WallclockTaint,
    check_paths,
    default_rules,
    lint_rules,
    project_analyses,
)

FIXTURES = Path(__file__).parent / "fixtures"


def corpus_findings(name: str, rules=None, analyses=None):
    """Run the engine over one fixture file, anchored at the corpus."""
    if rules is None and analyses is None:
        rules = lint_rules()
    return check_paths(
        [FIXTURES / name], rules or [], root=FIXTURES, project_analyses=analyses
    )


def findings_at(tmp_path, relative: str, source: str, analysis):
    """Run one analysis over ``source`` written at ``relative``."""
    target = tmp_path / relative
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return check_paths([target], [], root=tmp_path, project_analyses=[analysis])


class TestPositiveFixtures:
    def test_no_wallclock_duration(self):
        findings = corpus_findings("wallclock_pos.py")
        assert {f.rule_id for f in findings} == {"no-wallclock-duration"}
        assert len(findings) == 3  # one import + two time.time() calls

    def test_no_direct_sleep_random(self):
        findings = corpus_findings("sleep_pos.py")
        assert {f.rule_id for f in findings} == {"no-direct-sleep-random"}
        messages = "\n".join(f.message for f in findings)
        assert "time.sleep" in messages
        assert "random.uniform" in messages
        assert len(findings) == 4  # two imports + sleep + uniform

    def test_require_slots(self):
        findings = corpus_findings("slots_pos.py")
        assert [f.rule_id for f in findings] == ["require-slots"]
        assert "Span" in findings[0].message

    def test_no_unbounded_queue(self):
        findings = corpus_findings("queue_pos.py")
        assert {f.rule_id for f in findings} == {"no-unbounded-queue"}
        assert {f.message.split("(")[0] for f in findings} == {"ThreadPool", "Stage"}

    def test_no_unbounded_cache(self):
        findings = corpus_findings("cache_pos.py")
        assert {f.rule_id for f in findings} == {"no-unbounded-cache"}
        messages = {f.message for f in findings}
        assert any("UnboundedLookup._result_cache" in m for m in messages)
        assert any("UnboundedLookup._name_memo" in m for m in messages)
        assert any("UnboundedTemplates._templates" in m for m in messages)
        assert len(findings) == 3

    def test_no_unbounded_span_store(self):
        findings = corpus_findings("span_store_pos.py")
        assert {f.rule_id for f in findings} == {"no-unbounded-span-store"}
        messages = {f.message for f in findings}
        assert any("UnboundedSpanRing._spans" in m for m in messages)
        assert any("UnboundedSpanRing._trace_index" in m for m in messages)
        assert any("UnboundedTraceLog.completed_traces" in m for m in messages)
        assert len(findings) == 3

    def test_no_bare_except(self):
        findings = corpus_findings("bare_except_pos.py")
        assert [f.rule_id for f in findings] == ["no-bare-except"]

    def test_no_swallowed_fault(self):
        findings = corpus_findings("server/swallow_pos.py")
        assert {f.rule_id for f in findings} == {"no-swallowed-fault"}
        assert len(findings) == 2  # pass body + docstring-only body
        assert all(f.path == "server/swallow_pos.py" for f in findings)

    def test_no_blocking_call_on_event_loop(self):
        # run the loop analysis alone: the corpus deliberately also
        # trips no-direct-sleep-random, which is not under test here
        findings = corpus_findings(
            "loop_pos/evented.py", analyses=[MayBlockOnLoop()]
        )
        assert {f.rule_id for f in findings} == {
            "may-block-on-event-loop-transitive"
        }
        messages = "\n".join(f.message for f in findings)
        assert "socket .recv()" in messages
        assert "socket .sendall()" in messages
        assert "socket .send()" in messages
        assert "time.sleep()" in messages
        assert "untimed .acquire()" in messages
        assert "zero-arg .result()" in messages
        # sinks in helpers are reported where they live, with the chain
        via = "reachable from the event loop via _run_loop"
        assert f"socket .accept() {via} -> _accept_ready" in messages
        assert f"zero-arg .select() {via} -> _wait_for_events" in messages
        # recv + sendall + sleep + acquire + submit().result() + send
        # + accept + helper select() + the loop body's own untimed
        # select() (an idle loop that never wakes runs no deadline sweep)
        assert len(findings) == 9
        assert all(f.severity == "error" for f in findings)

    def test_no_wallclock_in_hedge(self):
        # run the clock analysis alone: the corpus deliberately also
        # trips no-direct-sleep-random, which is not under test here
        findings = corpus_findings(
            "hedge_pos/hedge.py", analyses=[WallclockTaint()]
        )
        assert {f.rule_id for f in findings} == {"wallclock-taint"}
        messages = "\n".join(f.message for f in findings)
        assert "from time import monotonic" in messages
        assert "time.time()" in messages
        assert "time.sleep()" in messages
        assert "time.monotonic()" in messages
        assert "time.perf_counter()" in messages
        # one from-import + four inline calls
        assert len(findings) == 5
        assert all(f.severity == "error" for f in findings)

    def test_inline_clock_read_in_a_rollup_module(self):
        # the rollup feeds the hedge trigger: same discipline, and the
        # injectable default on the line above the read stays legal
        findings = corpus_findings(
            "rollup_pos/rollup.py", analyses=[WallclockTaint()]
        )
        assert [f.rule_id for f in findings] == ["wallclock-taint"]
        assert findings[0].severity == "error"
        assert "inline time.monotonic()" in findings[0].message


@pytest.mark.parametrize(
    "name",
    [
        "wallclock_neg.py",
        "sleep_neg.py",
        "slots_neg.py",
        "queue_neg.py",
        "cache_neg.py",
        "span_store_neg.py",
        "bare_except_neg.py",
        "server/swallow_neg.py",
        "loop_neg/evented.py",
        "hedge_neg/hedge.py",
    ],
)
def test_negative_fixture_is_clean(name):
    assert corpus_findings(name, lint_rules(), project_analyses()) == []


class TestScoping:
    def test_swallowed_fault_only_patrols_dispatch_paths(self):
        # The same source outside a server/http/core path is not flagged.
        source = (FIXTURES / "server" / "swallow_pos.py").read_text()
        from repro.analysis import check_source
        from repro.analysis.rules import NoSwallowedFault

        assert check_source(source, path="apps/helper.py", rules=[NoSwallowedFault()]) == []
        assert check_source(source, path="server/x.py", rules=[NoSwallowedFault()]) != []

    def test_sleep_rule_exempts_the_injected_seams(self):
        source = (FIXTURES / "sleep_pos.py").read_text()
        from repro.analysis import check_source
        from repro.analysis.rules import NoDirectSleepRandom

        rule = [NoDirectSleepRandom()]
        assert check_source(source, path="resilience/policy.py", rules=rule) == []
        assert check_source(source, path="transport/chaos.py", rules=rule) == []
        assert check_source(source, path="apps/echo.py", rules=rule) != []

    def test_loop_rule_only_patrols_what_the_loop_reaches(self, tmp_path):
        # The same blocking calls are legal off the loop — a connection
        # thread or a handler-stage worker blocks by design — whatever
        # the file is called; what the loop body reaches is not.
        source = (FIXTURES / "loop_pos" / "evented.py").read_text()
        off_loop = source.replace("_run_loop", "_serve_connection")
        rule = MayBlockOnLoop()
        assert findings_at(tmp_path, "http/evented.py", off_loop, rule) == []
        assert findings_at(tmp_path, "http/core.py", source, rule) != []

    def test_clock_rule_only_patrols_clock_disciplined_modules(self, tmp_path):
        # The same inline clock reads are legal elsewhere (subject only
        # to the general wallclock/sleep rules, not this stricter one).
        source = (FIXTURES / "hedge_pos" / "hedge.py").read_text()
        rule = WallclockTaint()
        assert findings_at(tmp_path, "client/proxy.py", source, rule) == []
        for disciplined in (
            "resilience/hedge.py", "resilience/limiter.py", "obs/rollup.py"
        ):
            assert findings_at(tmp_path, disciplined, source, rule) != []

    def test_suppression_pragmas_silence_everything(self):
        assert corpus_findings("suppressed.py", rules=default_rules()) == []
