"""Unit tests for the hedge policy, budget bucket and trigger function.

Everything here is pure: time only ever arrives as an argument (the
``wallclock-taint`` contract), so the tests are plain arithmetic.
"""

import pytest

from repro.errors import InvocationError
from repro.obs.rollup import ObsRollup
from repro.resilience.hedge import HedgeBudget, HedgePolicy, hedge_trigger


def seeded_rollup(latencies):
    """A rollup that has observed the given latencies (successes)."""
    rollup = ObsRollup("client:test", "echo")
    for value in latencies:
        rollup.observe(value, None)
    return rollup


class TestHedgeBudget:
    def test_starts_full_and_spends_whole_tokens(self):
        budget = HedgeBudget(rate=0.05, burst=2.0)
        assert budget.tokens == pytest.approx(2.0)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()  # empty: third hedge denied
        assert budget.spent == 2
        assert budget.denied == 1

    def test_calls_accrue_rate_capped_at_burst(self):
        budget = HedgeBudget(rate=0.1, burst=1.0)
        assert budget.try_spend()  # drain the single token
        for _ in range(5):
            budget.note_call()
        assert budget.tokens == pytest.approx(0.5)
        assert not budget.try_spend()  # half a token is not a hedge
        for _ in range(50):
            budget.note_call()
        assert budget.tokens == pytest.approx(1.0)  # capped at burst
        assert budget.try_spend()

    def test_long_run_rate_is_bounded(self):
        # 1000 eligible calls at rate 0.05 fund at most burst + 50 hedges.
        budget = HedgeBudget(rate=0.05, burst=4.0)
        fired = 0
        for _ in range(1000):
            budget.note_call()
            if budget.try_spend():
                fired += 1
        assert fired <= 4 + 0.05 * 1000
        assert fired >= 50  # the rate keeps refunding, so hedges keep flowing

    def test_for_policy_copies_rates(self):
        policy = HedgePolicy(budget_rate=0.02, budget_burst=3.0)
        budget = HedgeBudget.for_policy(policy)
        assert budget.tokens == pytest.approx(3.0)
        budget.try_spend()
        budget.note_call()
        assert budget.tokens == pytest.approx(2.02)

    def test_snapshot_is_consistent(self):
        budget = HedgeBudget(rate=0.5, burst=1.0)
        budget.try_spend()
        budget.try_spend()
        assert budget.snapshot() == {"tokens": 0.0, "spent": 1, "denied": 1}

    def test_validation(self):
        with pytest.raises(InvocationError):
            HedgeBudget(rate=0.0)
        with pytest.raises(InvocationError):
            HedgeBudget(burst=0.5)


class TestHedgeTrigger:
    def test_fires_at_the_policy_quantile(self):
        # 19 fast calls and one straggler: p95 sits on the straggler's
        # shoulder, so the trigger lands between the two clusters.
        rollup = seeded_rollup([0.010] * 19 + [0.200])
        trigger = hedge_trigger(HedgePolicy(quantile=0.5), rollup, None)
        assert trigger == pytest.approx(0.010, rel=0.25)

    def test_cold_rollup_never_hedges(self):
        rollup = seeded_rollup([0.010] * 15)  # one short of min_samples
        assert hedge_trigger(HedgePolicy(min_samples=16), rollup, None) is None
        assert hedge_trigger(HedgePolicy(), None, None) is None

    def test_warm_rollup_arms_the_hedge(self):
        rollup = seeded_rollup([0.010] * 16)
        assert hedge_trigger(HedgePolicy(min_samples=16), rollup, None) is not None

    def test_trigger_floored_at_min_trigger(self):
        # microsecond-level quantiles must not double every send
        rollup = seeded_rollup([0.000001] * 32)
        trigger = hedge_trigger(HedgePolicy(min_trigger_s=0.005), rollup, None)
        assert trigger == pytest.approx(0.005)

    def test_trigger_beyond_attempt_budget_is_pointless(self):
        # the I/O timeout fires first, so the hedge adds nothing
        rollup = seeded_rollup([0.300] * 32)
        assert hedge_trigger(HedgePolicy(), rollup, 0.250) is None
        assert hedge_trigger(HedgePolicy(), rollup, 10.0) is not None
