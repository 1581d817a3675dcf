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

from repro.analysis import RULES, check
from repro.analysis.rules import NoDirectSleepRandom, NoSwallowedFault
from repro.analysis.taint import MayBlockOnLoop, WallclockTaint

FIXTURES = Path(__file__).parent / "fixtures"


def corpus_findings(name: str, rules=RULES):
    """Run the engine over one fixture file, anchored at the corpus."""
    return check([FIXTURES / name], rules, root=FIXTURES)


def findings_at(tmp_path, relative: str, source: str, rule):
    """Run one rule over ``source`` written at ``relative``."""
    target = tmp_path / relative
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return check([target], [rule], root=tmp_path)


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
        assert [f.message.split("(")[0] for f in findings] == ["Stage", "Stage"]

    def test_no_unbounded_cache(self):
        # caches grown from the entry with request data, whatever their name
        findings = corpus_findings("cache_pos.py")
        assert {f.rule_id for f in findings} == {"request-keyed-retention"}
        messages = {f.message for f in findings}
        assert any("UnboundedLookup._result_cache" in m for m in messages)
        assert any("UnboundedLookup._name_memo" in m for m in messages)
        assert any("UnboundedTemplates._templates" in m for m in messages)
        assert len(findings) == 3
        assert all(f.chain[0] == "SoapEndpoint.__call__" for f in findings)

    def test_no_unbounded_span_store(self):
        # span/trace buffers appended to from the entry, never trimmed
        findings = corpus_findings("span_store_pos.py")
        assert {f.rule_id for f in findings} == {"request-keyed-retention"}
        chains = {f.message.split(" grows ")[0]: f.chain for f in findings}
        assert chains == {
            "UnboundedSpanRing._spans": ("SoapEndpoint.__call__", "UnboundedSpanRing.ingest"),
            "UnboundedSpanRing._trace_index": (
                "SoapEndpoint.__call__",
                "UnboundedSpanRing.ingest",
            ),
            "UnboundedTraceLog.completed_traces": (
                "SoapEndpoint.__call__",
                "UnboundedTraceLog.finish",
            ),
        }

    def test_no_swallowed_fault(self):
        findings = corpus_findings("server/swallow_pos.py")
        assert {f.rule_id for f in findings} == {"no-swallowed-fault"}
        assert len(findings) == 2  # pass body + docstring-only body
        assert all(f.path == "server/swallow_pos.py" for f in findings)

    def test_no_blocking_call_on_event_loop(self):
        # run the loop analysis alone: the corpus deliberately also
        # trips no-direct-sleep-random, which is not under test here
        findings = corpus_findings("loop_pos/evented.py", [MayBlockOnLoop()])
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

    def test_no_wallclock_in_a_clock_disciplined_module(self):
        # run the clock analysis alone: the corpus deliberately also
        # trips no-direct-sleep-random, which is not under test here
        findings = corpus_findings("clock_pos/policy.py", [WallclockTaint()])
        assert {f.rule_id for f in findings} == {"wallclock-taint"}
        messages = "\n".join(f.message for f in findings)
        assert "from time import monotonic" in messages
        assert "time.time()" in messages
        assert "time.sleep()" in messages
        assert "time.monotonic()" in messages
        assert "time.perf_counter()" in messages
        # one from-import + five inline calls
        assert len(findings) == 6
        assert all(f.severity == "error" for f in findings)

    def test_inline_clock_read_in_a_rollup_module(self):
        # a class stamping events as a rollup does: the injectable default
        # on the line above the read stays legal; the inline read below it
        # does not
        findings = corpus_findings("clock_pos/policy.py", [WallclockTaint()])
        lines = (FIXTURES / "clock_pos" / "policy.py").read_text().splitlines()
        seam = lines.index("    def __init__(self, clock=time.monotonic):  # the seam: legal") + 1
        flagged = {f.line: f for f in findings}
        assert seam not in flagged
        assert flagged[seam + 2].rule_id == "wallclock-taint"
        assert flagged[seam + 2].severity == "error"
        assert "inline time.monotonic()" in flagged[seam + 2].message


@pytest.mark.parametrize(
    "name",
    [
        "wallclock_neg.py",
        "sleep_neg.py",
        "slots_neg.py",
        "queue_neg.py",
        "cache_neg.py",
        "span_store_neg.py",
        "server/swallow_neg.py",
        "loop_neg/evented.py",
        "clock_neg/policy.py",
    ],
)
def test_negative_fixture_is_clean(name):
    assert corpus_findings(name) == []


class TestScoping:
    def test_swallowed_fault_only_patrols_dispatch_paths(self):
        # The same source outside a server/http/core path is not flagged.
        source = (FIXTURES / "server" / "swallow_pos.py").read_text()
        rule = [NoSwallowedFault()]
        assert check([], rule, sources={"apps/helper.py": source}) == []
        assert check([], rule, sources={"server/x.py": source}) != []

    def test_sleep_rule_exempts_the_injected_seams(self):
        source = (FIXTURES / "sleep_pos.py").read_text()
        rule = [NoDirectSleepRandom()]
        assert check([], rule, sources={"resilience/policy.py": source}) == []
        assert check([], rule, sources={"transport/chaos.py": source}) == []
        assert check([], rule, sources={"apps/echo.py": source}) != []

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
        source = (FIXTURES / "clock_pos" / "policy.py").read_text()
        rule = WallclockTaint()
        assert findings_at(tmp_path, "client/proxy.py", source, rule) == []
        assert findings_at(tmp_path, "resilience/policy.py", source, rule) != []

    def test_suppression_pragmas_silence_everything(self):
        assert corpus_findings("suppressed.py") == []
