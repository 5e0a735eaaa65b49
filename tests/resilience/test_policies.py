"""Unit tests for the frozen resilience policy objects and the breaker FSM."""

from __future__ import annotations

import random
from statistics import NormalDist

import pytest

from repro.clock import VirtualClock
from repro.errors import ConfigurationError
from repro.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerPolicy,
    CircuitBreaker,
    DeadlineBudget,
    HedgePolicy,
    ResilienceConfig,
    RetryPolicy,
    StaleIfErrorPolicy,
)
from repro.simulation.latency import LatencyModel


class TestDeadlineBudget:
    def test_charge(self):
        budget = DeadlineBudget(1.0)
        assert budget.allows(0.4)
        budget.charge(0.4)
        assert budget.spent == pytest.approx(0.4)
        assert not budget.exhausted

    def test_exhaustion(self):
        budget = DeadlineBudget(0.5)
        budget.charge(0.5)
        assert budget.exhausted
        assert not budget.allows(0.01)

    def test_allows_is_a_preflight_check_not_a_charge(self):
        budget = DeadlineBudget(1.0)
        assert budget.allows(0.9)
        assert budget.allows(0.9)  # repeated checks do not consume budget
        assert budget.spent == 0.0

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ConfigurationError):
            DeadlineBudget(0.0)


class TestRetryPolicy:
    def test_backoff_is_capped_and_jittered(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=0.3)
        rng = random.Random(7)
        for attempt in range(6):
            ceiling = min(policy.max_delay, policy.base_delay * 2**attempt)
            for _ in range(50):
                delay = policy.backoff(attempt, rng)
                assert 0.0 <= delay <= ceiling

    def test_backoff_is_deterministic_per_seed(self):
        policy = RetryPolicy()
        first = [policy.backoff(i, random.Random(11)) for i in range(4)]
        second = [policy.backoff(i, random.Random(11)) for i in range(4)]
        assert first == second

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=0.5, max_delay=0.1)


class TestCircuitBreaker:
    def build(self, threshold=3, cooldown=1.0):
        clock = VirtualClock()
        breaker = CircuitBreaker(BreakerPolicy(threshold, cooldown), clock)
        return clock, breaker

    def test_opens_after_consecutive_failures(self):
        clock, breaker = self.build(threshold=3)
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        clock, breaker = self.build(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_after_cooldown_then_close_on_success(self):
        clock, breaker = self.build(threshold=1, cooldown=2.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(2.5)
        assert breaker.allow()  # the probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens_with_fresh_cooldown(self):
        clock, breaker = self.build(threshold=1, cooldown=2.0)
        breaker.record_failure()
        clock.advance(2.5)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        clock.advance(1.0)  # not yet a full cooldown since the re-open
        assert not breaker.allow()
        clock.advance(1.5)
        assert breaker.allow()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            BreakerPolicy(cooldown=-1.0)


class TestCircuitBreakerEdgeCases:
    """Half-open races: queued requests around the single probe slot."""

    def build(self, threshold=1, cooldown=2.0):
        clock = VirtualClock()
        breaker = CircuitBreaker(BreakerPolicy(threshold, cooldown), clock)
        return clock, breaker

    def trip_and_cool(self, clock, breaker):
        breaker.record_failure()
        clock.advance(2.5)

    def test_queued_requests_are_denied_while_the_probe_is_inflight(self):
        clock, breaker = self.build()
        self.trip_and_cool(clock, breaker)
        assert breaker.allow()  # the probe goes out
        # A burst of queued requests arrives before the probe resolves:
        # every one must be refused, and none may steal the probe slot.
        for _ in range(5):
            assert not breaker.allow()
        assert breaker.state == BREAKER_HALF_OPEN

    def test_probe_failure_with_queued_requests_reopens_for_everyone(self):
        clock, breaker = self.build()
        self.trip_and_cool(clock, breaker)
        assert breaker.allow()
        assert not breaker.allow()  # queued behind the probe
        breaker.record_failure()  # the probe fails
        assert breaker.state == BREAKER_OPEN
        # The queued requests retry immediately: still fast-failed, and
        # their denials must not extend or reset the fresh cooldown.
        for _ in range(3):
            assert not breaker.allow()
        clock.advance(2.5)
        assert breaker.allow()  # exactly one new probe after the cooldown
        assert not breaker.allow()

    def test_shard_restore_mid_probe_closes_on_the_probe_success(self):
        # The fault injector restores the shard while the probe is still
        # in flight; the probe's success is what closes the breaker, and
        # every queued request passes from then on.
        clock, breaker = self.build()
        self.trip_and_cool(clock, breaker)
        assert breaker.allow()
        assert not breaker.allow()  # queued mid-probe
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        for _ in range(5):
            assert breaker.allow()

    def test_restore_after_a_lost_probe_needs_one_more_cooldown(self):
        # Restore lands after the probe was already dropped: the failure
        # outcome re-opens the breaker even though the shard is healthy,
        # and the next cooldown's probe is what finally closes it.
        clock, breaker = self.build()
        self.trip_and_cool(clock, breaker)
        assert breaker.allow()
        breaker.record_failure()  # probe was lost before the restore
        assert breaker.state == BREAKER_OPEN
        clock.advance(2.5)
        assert breaker.allow()
        breaker.record_success()  # healthy shard answers the new probe
        assert breaker.state == BREAKER_CLOSED

    def test_late_success_from_before_the_trip_closes_the_breaker(self):
        # An in-flight request issued before the trip can resolve while
        # the breaker is open; success is authoritative evidence the
        # shard answers, so it closes the breaker immediately.
        clock, breaker = self.build(threshold=2)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_probe_slot_resets_on_each_new_half_open_window(self):
        clock, breaker = self.build()
        self.trip_and_cool(clock, breaker)
        assert breaker.allow()
        breaker.record_failure()
        clock.advance(2.5)
        # New half-open window: the stale probe flag must not leak in.
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()


class TestHedgePolicy:
    def test_delay_is_the_analytic_quantile(self):
        model = LatencyModel(mean=0.1, jitter=0.02)
        policy = HedgePolicy(quantile=0.95)
        expected = NormalDist(0.1, 0.02).inv_cdf(0.95)
        assert policy.delay(model) == pytest.approx(max(model.minimum, expected))

    def test_zero_jitter_model_degenerates_to_the_mean(self):
        model = LatencyModel(mean=0.1, jitter=0.0)
        assert HedgePolicy().delay(model) == pytest.approx(0.1)

    def test_delay_draws_no_rng(self):
        model = LatencyModel(mean=0.1, jitter=0.02)
        model.reseed(3)
        before = model.sample()
        model.reseed(3)
        HedgePolicy().delay(model)
        assert model.sample() == before

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HedgePolicy(quantile=0.0)
        with pytest.raises(ConfigurationError):
            HedgePolicy(quantile=1.0)


class TestStaleIfErrorPolicy:
    def test_budget_bounds_serving(self):
        policy = StaleIfErrorPolicy(max_staleness=5.0)
        assert policy.may_serve(0.0)
        assert policy.may_serve(5.0)
        assert not policy.may_serve(5.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StaleIfErrorPolicy(max_staleness=0.0)


class TestResilienceConfig:
    def test_defaults_enable_every_policy(self):
        config = ResilienceConfig()
        assert config.retry is not None
        assert config.breaker is not None
        assert config.hedge is not None
        assert config.stale_if_error is not None
        assert config.request_deadline == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(request_deadline=0.0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(assumed_round_trip=-0.1)
