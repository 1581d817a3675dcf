"""Unit and convergence tests for the AIMD adaptive concurrency window.

The limiter's clock is injected, so cooldown behaviour replays exactly;
the convergence tests drive it with a seeded rng instead of a wire.
"""

import inspect
import random

import pytest

from repro.errors import InvocationError
from repro.resilience.limiter import (
    OUTCOME_ERROR,
    OUTCOME_OVERLOAD,
    OUTCOME_SUCCESS,
    AdaptiveLimiter,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestAdditiveIncrease:
    def test_success_grows_by_additive_over_limit(self):
        limiter = AdaptiveLimiter(initial=4.0, clock=FakeClock())
        assert limiter.try_acquire()
        limiter.release(OUTCOME_SUCCESS)
        assert limiter.limit == pytest.approx(4.25)  # + 1/4

    def test_one_windows_worth_of_successes_adds_about_one(self):
        # the TCP analogy: one MSS per RTT — floor(limit) successes
        # grow the window by roughly one slot
        limiter = AdaptiveLimiter(initial=8.0, clock=FakeClock())
        for _ in range(8):
            assert limiter.try_acquire()
            limiter.release(OUTCOME_SUCCESS)
        assert limiter.limit == pytest.approx(9.0, abs=0.1)

    def test_growth_caps_at_max_limit(self):
        limiter = AdaptiveLimiter(
            initial=4.0, max_limit=4.5, additive=10.0, clock=FakeClock()
        )
        limiter.try_acquire()
        limiter.release(OUTCOME_SUCCESS)
        assert limiter.limit == 4.5


class TestMultiplicativeDecrease:
    def test_overload_halves_with_floor(self):
        limiter = AdaptiveLimiter(initial=8.0, clock=FakeClock())
        for expected in (4.0, 2.0, 1.0, 1.0):
            limiter.try_acquire()
            limiter.release(OUTCOME_OVERLOAD)
            assert limiter.limit == pytest.approx(expected)

    def test_cooldown_coalesces_one_congestion_event(self):
        # a burst of sheds from one congestion event must cost ONE
        # decrease, not collapse the window to the floor
        clock = FakeClock()
        limiter = AdaptiveLimiter(initial=16.0, cooldown_s=1.0, clock=clock)
        for _ in range(5):
            limiter.try_acquire()
            limiter.release(OUTCOME_OVERLOAD)
        assert limiter.limit == pytest.approx(8.0)
        assert limiter.snapshot()["decreases"] == 1
        clock.advance(1.5)  # a new congestion event, past the cooldown
        limiter.try_acquire()
        limiter.release(OUTCOME_OVERLOAD)
        assert limiter.limit == pytest.approx(4.0)
        assert limiter.snapshot()["decreases"] == 2

    def test_error_outcome_is_neutral(self):
        limiter = AdaptiveLimiter(initial=8.0, clock=FakeClock())
        limiter.try_acquire()
        limiter.release(OUTCOME_ERROR)
        assert limiter.limit == 8.0


class TestGating:
    def test_gates_at_floor_of_limit(self):
        limiter = AdaptiveLimiter(initial=2.0, clock=FakeClock())
        assert limiter.try_acquire()
        assert limiter.try_acquire()
        assert not limiter.try_acquire()  # floor(2.0) slots are taken
        assert limiter.gated == 1
        limiter.release(OUTCOME_SUCCESS)
        assert limiter.try_acquire()  # a freed slot re-admits

    def test_release_without_acquire_rejected(self):
        limiter = AdaptiveLimiter(clock=FakeClock())
        with pytest.raises(InvocationError):
            limiter.release(OUTCOME_SUCCESS)

    def test_unknown_outcome_rejected(self):
        limiter = AdaptiveLimiter(clock=FakeClock())
        limiter.try_acquire()
        with pytest.raises(InvocationError, match="outcome"):
            limiter.release("shrug")


class TestValidation:
    def test_limit_ordering_required(self):
        with pytest.raises(InvocationError):
            AdaptiveLimiter(initial=0.5)
        with pytest.raises(InvocationError):
            AdaptiveLimiter(initial=8.0, max_limit=4.0)

    def test_knobs(self):
        # the floor is the constant 1.0: one call in flight is always admitted
        assert list(inspect.signature(AdaptiveLimiter).parameters) == [
            "initial", "max_limit", "additive", "decrease", "cooldown_s", "clock",
        ]

    def test_knob_ranges(self):
        with pytest.raises(InvocationError):
            AdaptiveLimiter(additive=0.0)
        with pytest.raises(InvocationError):
            AdaptiveLimiter(decrease=1.0)
        with pytest.raises(InvocationError):
            AdaptiveLimiter(cooldown_s=-1.0)


class TestConvergence:
    """Seeded chaos: the window must track the overload signal."""

    def run_storm(self, limiter, rng, rounds, overload_rate):
        for _ in range(rounds):
            if not limiter.try_acquire():
                continue
            overloaded = rng.random() < overload_rate
            limiter.release(
                OUTCOME_OVERLOAD if overloaded else OUTCOME_SUCCESS
            )

    def test_sustained_storm_collapses_the_window(self):
        clock = FakeClock()
        limiter = AdaptiveLimiter(initial=64.0, clock=clock)
        self.run_storm(limiter, random.Random(7), 500, overload_rate=0.9)
        assert limiter.limit <= 2.0

    def test_recovery_reopens_the_window(self):
        clock = FakeClock()
        limiter = AdaptiveLimiter(initial=64.0, clock=clock)
        self.run_storm(limiter, random.Random(7), 500, overload_rate=0.9)
        collapsed = limiter.limit
        self.run_storm(limiter, random.Random(11), 500, overload_rate=0.0)
        assert limiter.limit > collapsed + 10

    def test_equilibrium_under_mixed_load_stays_off_the_rails(self):
        # 10% sheds: AIMD should oscillate between floor and ceiling,
        # never pinning to either for the whole run
        clock = FakeClock()
        limiter = AdaptiveLimiter(initial=8.0, max_limit=64.0, clock=clock)
        samples = []
        rng = random.Random(3)
        for _ in range(2000):
            if limiter.try_acquire():
                overloaded = rng.random() < 0.1
                limiter.release(
                    OUTCOME_OVERLOAD if overloaded else OUTCOME_SUCCESS
                )
            samples.append(limiter.limit)
        assert min(samples) >= 1.0
        assert max(samples) <= 64.0
        average = sum(samples) / len(samples)
        assert 1.5 < average < 32.0
