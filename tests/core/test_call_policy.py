"""Unit tests for CallPolicy, Deadline and the retry state machine."""

import dataclasses
import random

import pytest

from repro.errors import (
    HttpError,
    InvocationError,
    SoapFaultError,
    TransportError,
)
from repro.resilience.hedge import HedgePolicy
from repro.resilience.policy import (
    CallPolicy,
    DEFAULT_POLICY,
    Deadline,
    RetryState,
    execute_with_policy,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadline:
    def test_never_expires(self):
        deadline = Deadline.never()
        assert not deadline.bounded
        assert deadline.remaining() is None
        assert not deadline.expired()

    def test_counts_down(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.remaining() == pytest.approx(1.0)
        clock.advance(0.4)
        assert deadline.remaining() == pytest.approx(0.6)
        assert not deadline.expired()
        clock.advance(0.6)
        assert deadline.expired()

    def test_remaining_goes_negative(self):
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(2.0)
        assert deadline.remaining() == pytest.approx(-1.5)
        assert deadline.expired()


class TestCallPolicyValidation:
    def test_default_is_seed_behaviour(self):
        assert DEFAULT_POLICY.timeout is None
        assert DEFAULT_POLICY.retries == 0
        assert not DEFAULT_POLICY.start().bounded

    def test_negative_retries_rejected(self):
        with pytest.raises(InvocationError):
            CallPolicy(retries=-1)

    def test_hedge_policy_validation(self):
        with pytest.raises(InvocationError, match="quantile"):
            HedgePolicy(quantile=1.0)
        with pytest.raises(InvocationError, match="quantile"):
            HedgePolicy(quantile=0.0)
        with pytest.raises(InvocationError, match="budget_rate"):
            HedgePolicy(budget_rate=0.0)
        with pytest.raises(InvocationError, match="budget_burst"):
            HedgePolicy(budget_burst=0.5)

    def test_knobs(self):
        # hedging is switched off by ClientConfig.hedge=None, not a count
        assert [f.name for f in dataclasses.fields(CallPolicy)] == [
            "timeout", "deadline", "retries", "backoff_base", "backoff_multiplier",
            "backoff_max", "jitter", "retryable_faultcodes", "retry_transport_errors",
        ]
        assert [f.name for f in dataclasses.fields(HedgePolicy)] == [
            "quantile", "budget_rate", "budget_burst", "min_samples", "min_trigger_s",
        ]

    def test_jitter_range(self):
        with pytest.raises(InvocationError):
            CallPolicy(jitter=1.5)

    def test_with_overrides_is_a_copy(self):
        base = CallPolicy(retries=1)
        bumped = base.with_overrides(retries=3)
        assert base.retries == 1 and bumped.retries == 3


class TestRetryability:
    def test_busy_and_timeout_faults_retryable(self):
        policy = CallPolicy()
        assert policy.is_retryable(SoapFaultError("Server.Busy", "shed"))
        assert policy.is_retryable(SoapFaultError("SOAP-ENV:Server.Timeout", "late"))

    def test_plain_faults_not_retryable(self):
        policy = CallPolicy()
        assert not policy.is_retryable(SoapFaultError("Server", "boom"))
        assert not policy.is_retryable(SoapFaultError("Client", "bad request"))

    def test_transport_errors_follow_flag(self):
        assert CallPolicy().is_retryable(TransportError("reset"))
        assert not CallPolicy(retry_transport_errors=False).is_retryable(
            TransportError("reset")
        )

    def test_http_503_retryable_others_not(self):
        policy = CallPolicy()
        assert policy.is_retryable(HttpError("busy", status=503))
        assert not policy.is_retryable(HttpError("nope", status=404))

    def test_custom_faultcode_set(self):
        policy = CallPolicy(retryable_faultcodes=frozenset({"Server"}))
        assert policy.is_retryable(SoapFaultError("Server", "boom"))
        assert not policy.is_retryable(SoapFaultError("Server.Busy", "shed"))


class TestBackoff:
    def test_exponential_growth_capped(self):
        policy = CallPolicy(
            backoff_base=0.1, backoff_multiplier=2.0, backoff_max=0.5, jitter=0.0
        )
        delays = [policy.backoff_delay(i) for i in range(5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_full_jitter_stays_under_cap_and_is_seeded(self):
        policy = CallPolicy(backoff_base=0.1, jitter=1.0)
        a = [policy.backoff_delay(i, rng=random.Random(7)) for i in range(8)]
        b = [policy.backoff_delay(i, rng=random.Random(7)) for i in range(8)]
        assert a == b  # deterministic under a seeded rng
        assert all(0.0 <= d <= policy.backoff_max for d in a)


class TestExecuteWithPolicy:
    def test_success_first_try(self):
        state = RetryState()
        result = execute_with_policy(lambda d: "ok", CallPolicy(), state=state)
        assert result == "ok"
        assert state.attempts == 1 and state.retries == 0

    def test_converges_after_retryable_failures(self):
        failures = [TransportError("drop"), TransportError("drop")]

        def attempt(deadline):
            if failures:
                raise failures.pop(0)
            return "recovered"

        slept = []
        state = RetryState()
        result = execute_with_policy(
            attempt,
            CallPolicy(retries=3, jitter=0.0, backoff_base=0.01),
            sleep=slept.append,
            state=state,
        )
        assert result == "recovered"
        assert state.attempts == 3 and state.retries == 2
        assert slept == pytest.approx([0.01, 0.02])

    def test_budget_exhaustion_reraises_last_error(self):
        def attempt(deadline):
            raise SoapFaultError("Server.Busy", "still shedding")

        with pytest.raises(SoapFaultError, match="still shedding"):
            execute_with_policy(
                attempt, CallPolicy(retries=2, jitter=0.0), sleep=lambda s: None
            )

    def test_non_retryable_raises_immediately(self):
        calls = []

        def attempt(deadline):
            calls.append(1)
            raise SoapFaultError("Client", "your fault")

        with pytest.raises(SoapFaultError):
            execute_with_policy(attempt, CallPolicy(retries=5), sleep=lambda s: None)
        assert len(calls) == 1

    def test_deadline_cuts_retries_short(self):
        # 10ms whole-call budget but the first backoff alone is 50ms:
        # the loop must give up instead of sleeping past the deadline
        def attempt(deadline):
            raise TransportError("drop")

        state = RetryState()
        with pytest.raises(TransportError):
            execute_with_policy(
                attempt,
                CallPolicy(retries=5, deadline=0.01, backoff_base=0.05, jitter=0.0),
                sleep=lambda s: None,
                state=state,
            )
        assert state.attempts == 1

    def test_on_retry_callback_sees_each_retry(self):
        failures = [TransportError("a"), TransportError("b")]

        def attempt(deadline):
            if failures:
                raise failures.pop(0)
            return True

        seen = []
        execute_with_policy(
            attempt,
            CallPolicy(retries=2, jitter=0.0, backoff_base=0.0),
            sleep=lambda s: None,
            on_retry=lambda i, exc, delay: seen.append((i, str(exc))),
        )
        assert seen == [(0, "a"), (1, "b")]
