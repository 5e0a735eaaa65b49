"""Exact values of the three registered TTL estimators and the Poisson model.

The property suite (``test_properties.py``) checks contracts over random
traces; these tests pin the numbers on hand-worked inputs: Equation 1 read
back through the exponential CDF, a record's TTL under either sampler mode,
the empty-result prior, the EWMA taking over a query's estimate, the Alex
and static baselines at their edges, and every registry parameter reaching
the estimator it names.
"""

from __future__ import annotations

import math

import pytest

from repro.core import QuaestorConfig
from repro.ttl import (
    AlexTTLEstimator,
    QuaestorTTLEstimator,
    StaticTTLEstimator,
    TTLBounds,
    TTLEstimatorSpec,
)
from repro.ttl.poisson import combined_write_rate, poisson_quantile_ttl
from repro.ttl.write_rate import WriteRateSampler

#: Wide enough that no test value below is clamped unless it means to be.
WIDE = TTLBounds(minimum=0.001, maximum=100_000.0)

#: TTL of a key with no rate sample: ln 2 / (1/600 s⁻¹), at p = 0.5.
PRIOR_TTL = math.log(2.0) * 600.0


class TestPoissonModel:
    @pytest.mark.parametrize(
        "rate, quantile",
        [(0.02, 0.5), (1.0, 0.5), (0.1, 0.1), (0.1, 0.9), (5.0, 0.99), (1 / 600, 0.25)],
    )
    def test_the_ttl_is_the_exponential_cdf_inverted(self, rate, quantile):
        """P(next write within the TTL) = 1 - e^{-rate * ttl} = quantile."""
        ttl = poisson_quantile_ttl(rate, quantile)
        assert 1.0 - math.exp(-rate * ttl) == pytest.approx(quantile, rel=1e-12)

    @pytest.mark.parametrize("quantile", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_a_quantile_outside_the_open_unit_interval_is_rejected(self, quantile):
        with pytest.raises(ValueError, match="quantile"):
            poisson_quantile_ttl(0.1, quantile)

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_a_rate_that_is_not_positive_is_rejected(self, rate):
        with pytest.raises(ValueError, match="write_rate"):
            poisson_quantile_ttl(rate, 0.5)

    def test_the_combined_rate_ignores_member_order_and_keeps_a_single_rate(self):
        assert combined_write_rate([0.3, 0.1, 0.2]) == combined_write_rate([0.1, 0.2, 0.3])
        assert combined_write_rate([0.25]) == 0.25
        with pytest.raises(ValueError):
            combined_write_rate([0.1, 0.0])


class TestQuaestorRecordTTL:
    @pytest.mark.parametrize("mode", ["window", "span"])
    def test_a_never_written_key_gets_the_prior_ttl(self, mode):
        estimator = QuaestorTTLEstimator(sampler=WriteRateSampler(estimation=mode))
        assert estimator.estimate_record("never-written", now=50.0) == pytest.approx(PRIOR_TTL)

    @pytest.mark.parametrize("mode", ["window", "span"])
    def test_three_writes_ten_seconds_apart_give_ln2_over_a_tenth(self, mode):
        # Writes at 10, 20, 30 read at 40: both modes measure 3 arrivals
        # over 30 s, so rate 0.1/s and TTL ln 2 / 0.1.
        estimator = QuaestorTTLEstimator(bounds=WIDE, sampler=WriteRateSampler(estimation=mode))
        for timestamp in (10.0, 20.0, 30.0):
            estimator.observe_write("k", timestamp)
        assert estimator.estimate_record("k", now=40.0) == pytest.approx(math.log(2.0) / 0.1)

    def test_a_lone_write_keeps_the_prior_in_window_mode_only(self):
        window = QuaestorTTLEstimator(bounds=WIDE, sampler=WriteRateSampler(estimation="window"))
        span = QuaestorTTLEstimator(bounds=WIDE, sampler=WriteRateSampler(estimation="span"))
        for estimator in (window, span):
            estimator.observe_write("k", 100.0)
        assert window.estimate_record("k", now=110.0) == pytest.approx(PRIOR_TTL)
        # Span mode: one arrival over 10 s, rate 0.1/s.
        assert span.estimate_record("k", now=110.0) == pytest.approx(math.log(2.0) / 0.1)

    def test_the_quantile_scales_the_ttl_by_its_log_odds_of_survival(self):
        low = QuaestorTTLEstimator(quantile=0.5, bounds=WIDE)
        high = QuaestorTTLEstimator(quantile=0.9, bounds=WIDE)
        ratio = high.estimate_record("k", 0.0) / low.estimate_record("k", 0.0)
        assert ratio == pytest.approx(math.log(10.0) / math.log(2.0))


class TestQuaestorQueryTTL:
    def test_an_empty_result_gets_the_prior_ttl(self):
        estimator = QuaestorTTLEstimator(bounds=WIDE)
        assert estimator.estimate_query("q", [], now=0.0) == pytest.approx(PRIOR_TTL)

    def test_members_combine_by_summing_their_rates(self):
        estimator = QuaestorTTLEstimator(bounds=WIDE, sampler=WriteRateSampler(estimation="span"))
        for timestamp in (10.0, 20.0, 30.0):  # 0.1/s at now=40
            estimator.observe_write("a", timestamp)
        estimator.observe_write("b", 30.0)  # one arrival over 10 s: 0.1/s
        ttl = estimator.estimate_query("q", ["a", "b"], now=40.0)
        assert ttl == pytest.approx(math.log(2.0) / 0.2)

    def test_once_seeded_the_ewma_answers_whatever_the_members(self):
        estimator = QuaestorTTLEstimator(alpha=0.5, bounds=WIDE)
        first = estimator.estimate_query("q", ["a"], now=0.0)
        assert first == pytest.approx(PRIOR_TTL)
        # Later member writes do not move a query the EWMA already tracks.
        for timestamp in range(0, 100):
            estimator.observe_write("a", float(timestamp))
        assert estimator.estimate_query("q", ["a", "b", "c"], now=100.0) == first
        estimator.observe_query_invalidation("q", actual_ttl=10.0, timestamp=100.0)
        assert estimator.estimate_query("q", [], now=100.0) == pytest.approx(
            0.5 * PRIOR_TTL + 0.5 * 10.0
        )

    def test_a_negative_actual_ttl_counts_as_zero(self):
        estimator = QuaestorTTLEstimator(alpha=0.5, bounds=WIDE)
        estimator.estimate_query("q", [], now=0.0)
        estimator.observe_query_invalidation("q", actual_ttl=-3.0, timestamp=1.0)
        assert estimator.estimate_query("q", [], now=1.0) == pytest.approx(0.5 * PRIOR_TTL)


class TestBaselineEdges:
    def test_alex_gives_an_empty_result_the_cap(self):
        estimator = AlexTTLEstimator(percentage=0.5, cap=40.0, bounds=WIDE)
        assert estimator.estimate_query("q", [], now=0.0) == 40.0

    def test_alex_counts_age_from_the_latest_write(self):
        estimator = AlexTTLEstimator(percentage=0.5, cap=1_000.0, bounds=WIDE)
        estimator.observe_write("k", 0.0)
        estimator.observe_write("k", 80.0)
        assert estimator.estimate_record("k", now=100.0) == pytest.approx(10.0)

    def test_alex_reads_a_write_from_the_future_as_age_zero(self):
        estimator = AlexTTLEstimator(percentage=0.5, cap=1_000.0, bounds=TTLBounds(minimum=2.0))
        estimator.observe_write("k", 50.0)
        assert estimator.estimate_record("k", now=40.0) == 2.0

    def test_static_zero_ttl_is_raised_to_the_minimum(self):
        estimator = StaticTTLEstimator(ttl=0.0, bounds=TTLBounds(minimum=3.0, maximum=10.0))
        assert estimator.estimate_record("k", 0.0) == 3.0
        assert estimator.estimate_query("q", ["k"], 0.0) == 3.0

    def test_static_rejects_a_negative_ttl(self):
        with pytest.raises(ValueError):
            StaticTTLEstimator(ttl=-1.0)


class TestRegistryParameters:
    @pytest.mark.parametrize(
        "name, cls",
        [
            ("static", StaticTTLEstimator),
            ("alex", AlexTTLEstimator),
            ("quaestor", QuaestorTTLEstimator),
        ],
    )
    def test_every_name_builds_its_class_on_the_given_bounds(self, name, cls):
        bounds = TTLBounds(minimum=4.0, maximum=8.0)
        estimator = TTLEstimatorSpec.of(name).build(bounds=bounds)
        assert type(estimator) is cls
        assert estimator.bounds is bounds
        assert 4.0 <= estimator.estimate_record("k", 0.0) <= 8.0

    @pytest.mark.parametrize(
        "param, value, read",
        [
            ("quantile", 0.8, lambda estimator: estimator.quantile),
            ("alpha", 0.25, lambda estimator: estimator._query_ewma.alpha),
            ("window", 30.0, lambda estimator: estimator.sampler.window),
            ("max_samples_per_key", 7, lambda estimator: estimator.sampler.max_samples_per_key),
            ("default_rate", 0.5, lambda estimator: estimator.sampler.default_rate),
        ],
    )
    def test_each_quaestor_parameter_reaches_the_estimator(self, param, value, read):
        estimator = TTLEstimatorSpec.of("quaestor", **{param: value}).build()
        assert read(estimator) == value
        assert estimator.sampler.estimation == "span"

    @pytest.mark.parametrize("quantile, alpha", [(0.3, 0.1), (0.9, 0.6)])
    def test_spec_quantile_and_alpha_reach_the_estimator_through_the_config(self, quantile, alpha):
        spec = TTLEstimatorSpec.of("quaestor", quantile=quantile, alpha=alpha)
        estimator = QuaestorConfig(ttl_estimator=spec).build_ttl_estimator()
        assert (estimator.quantile, estimator._query_ewma.alpha) == (quantile, alpha)

    def test_an_unset_quantile_and_alpha_take_the_paper_defaults(self):
        estimator = QuaestorConfig().build_ttl_estimator()
        assert (estimator.quantile, estimator._query_ewma.alpha) == (0.5, 0.7)

    def test_alex_parameters_reach_the_estimator(self):
        estimator = TTLEstimatorSpec.of("alex", percentage=0.4, cap=25.0).build()
        assert (estimator.percentage, estimator.cap) == (0.4, 25.0)
