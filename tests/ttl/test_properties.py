"""Property tests for every registered TTL estimator family.

Three contracts hold for *all* estimators on *any* write trace (the registry,
plus the dual strategy on the windowed write-rate sampler):

* estimates are finite, non-negative and inside the configured bounds;
* estimates are a pure function of the observation history (rebuilding the
  estimator and replaying the trace reproduces them exactly);
* per-key state never leaks: observations on one key do not change another
  key's estimate.

On top of that, each family's own promises are exercised: monotone response
to write-rate increases where the contract makes one (the windowed sampler),
the Alex age proportionality, the Poisson quantile's monotone risk, and the
windowed sampler's first-observation and zero-interval-burst guards.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.ttl import (
    AlexTTLEstimator,
    ESTIMATOR_NAMES,
    QuaestorTTLEstimator,
    TTLBounds,
    TTLEstimatorSpec,
)
from repro.ttl.write_rate import MIN_SPAN, WriteRateSampler

BOUNDS = TTLBounds(minimum=0.5, maximum=900.0)

#: Positive inter-arrival gaps; folded into an increasing write-time trace.
gaps = st.lists(
    st.floats(min_value=1e-3, max_value=120.0, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=25,
)
#: The dual strategy on the windowed sampler, beside the registry's names.
WINDOWED = "quaestor, window sampler"
estimator_names = st.sampled_from(ESTIMATOR_NAMES + (WINDOWED,))


def trace_from_gaps(gap_list):
    """Fold positive gaps into increasing absolute write timestamps."""
    timestamps, now = [], 0.0
    for gap in gap_list:
        now += gap
        timestamps.append(now)
    return timestamps


def build(name: str):
    if name == WINDOWED:
        return QuaestorTTLEstimator(bounds=BOUNDS, sampler=WriteRateSampler(estimation="window"))
    return TTLEstimatorSpec.of(name).build(bounds=BOUNDS)


def replay(estimator, timestamps, key="k"):
    for timestamp in timestamps:
        estimator.observe_write(key, timestamp)
    return estimator


class TestUniversalContracts:
    @given(name=estimator_names, gap_list=gaps)
    @settings(max_examples=60)
    def test_estimates_are_finite_and_within_bounds(self, name, gap_list):
        timestamps = trace_from_gaps(gap_list)
        estimator = replay(build(name), timestamps)
        now = (timestamps[-1] if timestamps else 0.0) + 1.0
        for estimate in (
            estimator.estimate_record("k", now),
            estimator.estimate_query("q", ["k"], now),
            estimator.estimate_query("q-empty", [], now),
        ):
            assert math.isfinite(estimate)
            assert BOUNDS.minimum <= estimate <= BOUNDS.maximum

    @given(name=estimator_names, gap_list=gaps)
    @settings(max_examples=40)
    def test_replaying_the_trace_reproduces_the_estimate(self, name, gap_list):
        timestamps = trace_from_gaps(gap_list)
        now = (timestamps[-1] if timestamps else 0.0) + 2.5
        first = replay(build(name), timestamps)
        second = replay(build(name), timestamps)
        assert first.estimate_record("k", now) == second.estimate_record("k", now)
        assert first.estimate_query("q", ["k"], now) == second.estimate_query("q", ["k"], now)

    @given(name=estimator_names, gap_list=gaps)
    @settings(max_examples=40)
    def test_no_state_leaks_between_keys(self, name, gap_list):
        timestamps = trace_from_gaps(gap_list)
        now = (timestamps[-1] if timestamps else 0.0) + 1.0
        untouched = build(name)
        baseline_record = untouched.estimate_record("other", now)
        baseline_query = untouched.estimate_query("other-q", ["other"], now)

        noisy = replay(build(name), timestamps, key="hot")
        noisy.observe_query_invalidation("hot-q", 3.0, now)
        assert noisy.estimate_record("other", now) == baseline_record
        assert noisy.estimate_query("other-q", ["other"], now) == baseline_query


class TestWindowedSamplerContracts:
    """The contracts of ``estimation="window"`` mode."""

    @given(first_write=st.floats(min_value=0.0, max_value=1_000.0))
    @settings(max_examples=30)
    def test_single_write_keeps_the_default_rate_prior(self, first_write):
        # Regression: span mode turns one lone write into a quasi-infinite
        # rate; one arrival is an existence proof, not a rate.
        sampler = WriteRateSampler(estimation="window")
        sampler.observe_write("k", first_write)
        assert sampler.write_rate("k", first_write) == sampler.default_rate
        assert sampler.write_rate("k", first_write + 0.01) == sampler.default_rate

    @given(burst=st.integers(min_value=2, max_value=40))
    @settings(max_examples=30)
    def test_zero_interval_burst_is_rate_capped(self, burst):
        # Regression: a batch of writes sharing one timestamp must not
        # produce an unbounded rate; the MIN_SPAN floor caps it.
        sampler = WriteRateSampler(estimation="window")
        for _ in range(burst):
            sampler.observe_write("k", 50.0)
        rate = sampler.write_rate("k", 50.0)
        assert math.isfinite(rate)
        assert rate <= burst / MIN_SPAN

    @given(
        arrivals=st.integers(min_value=3, max_value=30),
        slow_gap=st.floats(min_value=2.0, max_value=60.0),
        compression=st.floats(min_value=1.1, max_value=20.0),
    )
    @settings(max_examples=40)
    def test_writing_faster_never_lowers_the_windowed_rate(
        self, arrivals, slow_gap, compression
    ):
        fast_gap = slow_gap / compression
        slow = WriteRateSampler(estimation="window")
        fast = WriteRateSampler(estimation="window")
        for index in range(arrivals):
            slow.observe_write("k", index * slow_gap)
            fast.observe_write("k", index * fast_gap)
        slow_rate = slow.write_rate("k", (arrivals - 1) * slow_gap + slow_gap)
        fast_rate = fast.write_rate("k", (arrivals - 1) * fast_gap + fast_gap)
        assert fast_rate >= slow_rate

    @given(
        arrivals=st.integers(min_value=3, max_value=30),
        slow_gap=st.floats(min_value=2.0, max_value=60.0),
        compression=st.floats(min_value=1.1, max_value=20.0),
    )
    @settings(max_examples=40)
    def test_faster_writes_never_lengthen_the_record_ttl(
        self, arrivals, slow_gap, compression
    ):
        fast_gap = slow_gap / compression
        slow = build(WINDOWED)
        fast = build(WINDOWED)
        for index in range(arrivals):
            slow.observe_write("k", index * slow_gap)
            fast.observe_write("k", index * fast_gap)
        slow_ttl = slow.estimate_record("k", (arrivals - 1) * slow_gap + slow_gap)
        fast_ttl = fast.estimate_record("k", (arrivals - 1) * fast_gap + fast_gap)
        assert fast_ttl <= slow_ttl


class TestFamilyContracts:
    @given(gap_list=gaps, ttl=st.floats(min_value=0.0, max_value=2_000.0))
    @settings(max_examples=30)
    def test_static_ignores_every_observation(self, gap_list, ttl):
        from repro.ttl.static import StaticTTLEstimator

        estimator = StaticTTLEstimator(ttl=ttl, bounds=BOUNDS)
        timestamps = trace_from_gaps(gap_list)
        replay(estimator, timestamps)
        now = (timestamps[-1] if timestamps else 0.0) + 1.0
        assert estimator.estimate_record("k", now) == BOUNDS.clamp(ttl)
        assert estimator.estimate_query("q", ["k"], now) == BOUNDS.clamp(ttl)

    @given(
        age_young=st.floats(min_value=0.0, max_value=500.0),
        extra=st.floats(min_value=0.1, max_value=500.0),
    )
    @settings(max_examples=40)
    def test_alex_ttl_grows_with_age_up_to_the_cap(self, age_young, extra):
        estimator = AlexTTLEstimator(bounds=BOUNDS)
        estimator.observe_write("k", 0.0)
        young = estimator.estimate_record("k", age_young)
        old = estimator.estimate_record("k", age_young + extra)
        assert young <= old
        assert old <= BOUNDS.clamp(estimator.cap)

    @given(
        low=st.floats(min_value=0.05, max_value=0.45),
        high=st.floats(min_value=0.55, max_value=0.95),
        gap_list=gaps,
    )
    @settings(max_examples=30)
    def test_poisson_quantile_is_monotone_in_risk(self, low, high, gap_list):
        timestamps = trace_from_gaps(gap_list)
        now = (timestamps[-1] if timestamps else 0.0) + 1.0
        def at(quantile):
            spec = TTLEstimatorSpec.of("quaestor", quantile=quantile)
            return replay(spec.build(bounds=BOUNDS), timestamps)

        conservative, optimistic = at(low), at(high)
        assert conservative.estimate_record("k", now) <= optimistic.estimate_record("k", now)

    @given(
        actuals=st.lists(
            st.floats(min_value=0.0, max_value=800.0), min_size=1, max_size=10
        )
    )
    @settings(max_examples=40)
    def test_quaestor_query_estimate_tracks_the_ewma_refinement(self, actuals):
        estimator = build("quaestor")
        # Seed the prior, then feed observed actual TTLs; the estimate must
        # stay the clamped EWMA of what was fed in (Equation 2).
        estimator.estimate_query("q", [], 0.0)
        alpha = 0.7
        ewma = estimator._query_ewma.get("q")
        for actual in actuals:
            estimator.observe_query_invalidation("q", actual, 0.0)
            ewma = alpha * ewma + (1.0 - alpha) * max(0.0, actual)
        assert estimator.estimate_query("q", [], 0.0) == pytest.approx(BOUNDS.clamp(ewma))

    @given(members=st.integers(min_value=1, max_value=20), gap=st.floats(min_value=0.5, max_value=30.0))
    @settings(max_examples=30)
    def test_query_ttl_never_exceeds_its_hottest_member(self, members, gap):
        # Minimum of exponentials: the combined rate dominates each member's,
        # so the query estimate cannot outlive any single member's estimate.
        estimator = build("quaestor")
        keys = [f"k{index}" for index in range(members)]
        for key in keys:
            for index in range(5):
                estimator.observe_write(key, index * gap)
        now = 5 * gap
        query_ttl = estimator.estimate_query("q", keys, now)
        member_ttls = [estimator.estimate_record(key, now) for key in keys]
        assert query_ttl <= min(member_ttls) + 1e-9
