"""Tests for write-rate sampling and the Poisson TTL model."""

from __future__ import annotations

import math

import pytest

from repro.ttl.poisson import (
    combined_write_rate,
    expected_time_to_next_write,
    poisson_quantile_ttl,
    query_result_ttl,
)
from repro.ttl.write_rate import WriteRateSampler


class TestWriteRateSampler:
    def test_unknown_key_uses_default_rate(self):
        sampler = WriteRateSampler(default_rate=0.01)
        assert sampler.write_rate("never-written", now=100.0) == 0.01

    def test_rate_reflects_observed_writes(self):
        sampler = WriteRateSampler(window=100.0)
        for timestamp in range(0, 50, 5):  # one write every 5 seconds
            sampler.observe_write("key", float(timestamp))
        rate = sampler.write_rate("key", now=50.0)
        assert rate == pytest.approx(0.2, rel=0.2)

    def test_hotter_keys_have_higher_rates(self):
        sampler = WriteRateSampler(window=100.0)
        for timestamp in range(0, 50, 1):
            sampler.observe_write("hot", float(timestamp))
        for timestamp in range(0, 50, 10):
            sampler.observe_write("cold", float(timestamp))
        assert sampler.write_rate("hot", 50.0) > sampler.write_rate("cold", 50.0)

    def test_old_writes_fall_out_of_window(self):
        sampler = WriteRateSampler(window=10.0, default_rate=0.001)
        sampler.observe_write("key", 0.0)
        assert sampler.write_rate("key", now=100.0) == 0.001

    def test_mean_interarrival_is_reciprocal(self):
        sampler = WriteRateSampler(default_rate=0.25)
        assert sampler.mean_interarrival("unknown", 0.0) == pytest.approx(4.0)

    def test_last_write(self):
        sampler = WriteRateSampler()
        assert sampler.last_write("key") is None
        sampler.observe_write("key", 3.0)
        sampler.observe_write("key", 7.0)
        assert sampler.last_write("key") == 7.0

    def test_bounded_history_per_key(self):
        sampler = WriteRateSampler(max_samples_per_key=10)
        for timestamp in range(100):
            sampler.observe_write("key", float(timestamp))
        assert len(sampler._samples["key"]) == 10

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            WriteRateSampler(window=0)
        with pytest.raises(ValueError):
            WriteRateSampler(max_samples_per_key=1)
        with pytest.raises(ValueError):
            WriteRateSampler(default_rate=0)
        with pytest.raises(ValueError):
            WriteRateSampler(estimation="guess")


class TestEstimationModes:
    """The window/span split the TTL bake-off measures (see module docstring)."""

    def test_span_mode_reproduces_the_legacy_formula(self):
        # Legacy: in-window count over the time since the oldest in-window
        # sample -- byte-identical to the pre-bake-off implementation.
        sampler = WriteRateSampler(window=100.0, estimation="span")
        for timestamp in (10.0, 20.0, 30.0):
            sampler.observe_write("key", timestamp)
        assert sampler.write_rate("key", now=40.0) == pytest.approx(3 / 30.0)

    def test_span_mode_lone_write_spike(self):
        # The first-observation spike the property suite flushed out: one
        # write observed just before the estimate yields a near-infinite
        # rate in span mode, but keeps the prior in window mode.
        span = WriteRateSampler(estimation="span", default_rate=0.01)
        window = WriteRateSampler(estimation="window", default_rate=0.01)
        for sampler in (span, window):
            sampler.observe_write("key", 100.0)
        assert span.write_rate("key", now=100.0) == pytest.approx(1e9)
        assert window.write_rate("key", now=100.0) == 0.01

    def test_window_mode_counts_arrivals_over_the_observed_span(self):
        sampler = WriteRateSampler(window=100.0, estimation="window")
        for timestamp in (10.0, 20.0, 30.0):
            sampler.observe_write("key", timestamp)
        # Observed span 40-10=30s capped at the window; three arrivals.
        assert sampler.write_rate("key", now=40.0) == pytest.approx(3 / 30.0)

    def test_window_mode_truncated_history_uses_the_tail_span(self):
        sampler = WriteRateSampler(window=1_000.0, max_samples_per_key=5, estimation="window")
        for timestamp in range(0, 100, 10):  # 10 writes, deque keeps 5
            sampler.observe_write("key", float(timestamp))
        # Kept samples 50..90: 4 inter-arrivals over a 50s tail span at now=100.
        assert sampler.write_rate("key", now=100.0) == pytest.approx(4 / 50.0)

    def test_estimator_specs_map_to_the_measured_modes(self):
        from repro.ttl import TTLEstimatorSpec

        assert TTLEstimatorSpec.of("quaestor").build().sampler.estimation == "span"
        assert TTLEstimatorSpec().build().sampler.estimation == "span"
        assert TTLEstimatorSpec.of("quaestor-window").build().sampler.estimation == "window"
        assert TTLEstimatorSpec.of("poisson").build().sampler.estimation == "window"
        assert TTLEstimatorSpec.of("write-rate").build().sampler.estimation == "window"


class TestPoissonModel:
    def test_quantile_formula_matches_equation_1(self):
        """TTL = -ln(1-p) / lambda (Equation 1 in the paper)."""
        rate, quantile = 0.1, 0.5
        assert poisson_quantile_ttl(rate, quantile) == pytest.approx(-math.log(0.5) / 0.1)

    def test_higher_quantile_means_longer_ttl(self):
        assert poisson_quantile_ttl(0.1, 0.9) > poisson_quantile_ttl(0.1, 0.5)

    def test_higher_write_rate_means_shorter_ttl(self):
        assert poisson_quantile_ttl(1.0, 0.5) < poisson_quantile_ttl(0.01, 0.5)

    def test_expected_time_is_mean_of_exponential(self):
        assert expected_time_to_next_write(0.25) == pytest.approx(4.0)

    def test_combined_rate_is_sum(self):
        """Minimum of independent exponentials has the summed rate."""
        assert combined_write_rate([0.1, 0.2, 0.3]) == pytest.approx(0.6)

    def test_query_ttl_shrinks_with_result_size(self):
        small = query_result_ttl([0.01] * 2, 0.5)
        large = query_result_ttl([0.01] * 50, 0.5)
        assert large < small

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            poisson_quantile_ttl(0.0, 0.5)
        with pytest.raises(ValueError):
            poisson_quantile_ttl(0.1, 1.0)
        with pytest.raises(ValueError):
            combined_write_rate([])
        with pytest.raises(ValueError):
            combined_write_rate([0.1, -0.1])
        with pytest.raises(ValueError):
            expected_time_to_next_write(0.0)
