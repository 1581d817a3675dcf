"""SLO checker: budget evaluation over live snapshots, plus the CLI's
exit-code contract."""

import json

import pytest

from repro.obs.slo import evaluate_snapshot, main, summarize

CONFIG = {
    "live": {
        "targets": {
            "urn:svc#op": {
                "latency_p99_s": {"max": 0.25},
                "error_rate_by_class.shed": {"max": 0.2},
            }
        },
        "sketches": {"span.execute.seconds": {"quantiles.p99": {"max": 0.1}}},
    },
}


def snapshot(p99=0.1, shed=0.05):
    return {
        "rollups": {
            "urn:svc#op": {
                "latency_p99_s": p99,
                "error_rate_by_class": {"shed": shed},
            }
        },
        "sketches": {
            "span.execute.seconds": {"quantiles": {"p99": 0.01}}
        },
    }


class TestEvaluateSnapshot:
    def test_within_budget_passes(self):
        checks = evaluate_snapshot(CONFIG, snapshot())
        assert len(checks) == 3 and all(c.ok for c in checks)

    def test_dotted_path_reaches_nested_class_rates(self):
        checks = evaluate_snapshot(CONFIG, snapshot(shed=0.9))
        failed = [c for c in checks if not c.ok]
        assert [c.metric for c in failed] == ["error_rate_by_class.shed"]

    def test_missing_target_skips_every_budget(self):
        checks = evaluate_snapshot(CONFIG, {"rollups": {}, "sketches": {}})
        assert all(c.skipped for c in checks)


class TestSummarize:
    def test_strict_turns_skips_into_a_bust(self):
        checks = evaluate_snapshot(CONFIG, {"rollups": {}, "sketches": {}})
        assert summarize(checks)["ok"] is True
        assert summarize(checks, strict=True)["ok"] is False

    def test_document_shape(self):
        doc = summarize(evaluate_snapshot(CONFIG, snapshot()))
        assert doc["failed"] == 0 and doc["checks"] == len(doc["results"])
        assert {"subject", "metric", "value", "bound", "kind", "ok", "skipped"} <= set(
            doc["results"][0]
        )


class TestCli:
    def write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_passing_gate_exits_zero(self, tmp_path, capsys):
        config = self.write(tmp_path, "slo.json", CONFIG)
        snap = self.write(tmp_path, "snap.json", snapshot())
        assert main(["check", "--config", config, "--snapshot", snap]) == 0
        out = capsys.readouterr().out
        assert "-> OK" in out and "[ok  ]" in out

    def test_bust_exits_one(self, tmp_path, capsys):
        config = self.write(tmp_path, "slo.json", CONFIG)
        snap = self.write(tmp_path, "snap.json", snapshot(p99=5.0))
        assert main(["check", "--config", config, "--snapshot", snap]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_strict_fails_on_skips(self, tmp_path):
        config = self.write(tmp_path, "slo.json", CONFIG)
        snap = self.write(tmp_path, "snap.json", {"rollups": {}, "sketches": {}})
        args = ["check", "--config", config, "--snapshot", snap]
        assert main(args) == 0
        assert main(args + ["--strict"]) == 1

    def test_usage_errors_exit_two(self, tmp_path):
        config = self.write(tmp_path, "slo.json", CONFIG)
        assert main(["check", "--config", str(tmp_path / "nope.json")]) == 2
        assert main(["check", "--config", config]) == 2  # nothing to evaluate
