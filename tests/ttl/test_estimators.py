"""Tests for the TTL estimators (Quaestor's and the baselines)."""

from __future__ import annotations

import pytest

from repro.ttl import (
    AdaptiveTTLEstimator,
    AlexTTLEstimator,
    EwmaTracker,
    QuaestorTTLEstimator,
    StaticTTLEstimator,
    TTLBounds,
)


class TestTTLBounds:
    def test_clamping(self):
        bounds = TTLBounds(minimum=5.0, maximum=100.0)
        assert bounds.clamp(1.0) == 5.0
        assert bounds.clamp(50.0) == 50.0
        assert bounds.clamp(1000.0) == 100.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            TTLBounds(minimum=-1.0)
        with pytest.raises(ValueError):
            TTLBounds(minimum=10.0, maximum=5.0)


class TestEwmaTracker:
    def test_first_observation_is_taken_verbatim(self):
        tracker = EwmaTracker(alpha=0.7)
        assert tracker.update("q", 100.0) == 100.0

    def test_blending_follows_equation_2(self):
        """ttl_new = alpha * ttl_old + (1 - alpha) * ttl_actual."""
        tracker = EwmaTracker(alpha=0.7)
        tracker.update("q", 100.0)
        assert tracker.update("q", 10.0) == pytest.approx(0.7 * 100.0 + 0.3 * 10.0)

    def test_seed_does_not_overwrite(self):
        tracker = EwmaTracker()
        tracker.seed("q", 50.0)
        tracker.seed("q", 10.0)
        assert tracker.get("q") == 50.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            EwmaTracker(alpha=1.0)
        tracker = EwmaTracker()
        with pytest.raises(ValueError):
            tracker.update("q", -1.0)


class TestQuaestorEstimator:
    def test_record_ttl_shrinks_with_write_rate(self):
        estimator = QuaestorTTLEstimator(bounds=TTLBounds(minimum=0.1, maximum=10_000.0))
        for timestamp in range(0, 100, 2):
            estimator.observe_write("record:hot", float(timestamp))
        hot = estimator.estimate_record("record:hot", now=100.0)
        cold = estimator.estimate_record("record:cold", now=100.0)
        assert hot < cold

    def test_query_estimate_uses_member_rates(self):
        estimator = QuaestorTTLEstimator(bounds=TTLBounds(minimum=0.1, maximum=10_000.0))
        for timestamp in range(0, 100, 2):
            estimator.observe_write("record:hot", float(timestamp))
        hot_query = estimator.estimate_query("query:hot", ["record:hot"], now=100.0)
        cold_query = estimator.estimate_query("query:cold", ["record:cold"], now=100.0)
        assert hot_query < cold_query

    def test_invalidation_feedback_moves_estimate_toward_actual(self):
        estimator = QuaestorTTLEstimator(alpha=0.5, bounds=TTLBounds(minimum=0.1, maximum=10_000.0))
        initial = estimator.estimate_query("query:q", [], now=0.0)
        for _ in range(10):
            estimator.observe_query_invalidation("query:q", actual_ttl=5.0, timestamp=0.0)
        refined = estimator.estimate_query("query:q", [], now=0.0)
        assert abs(refined - 5.0) < abs(initial - 5.0)

    def test_estimates_respect_bounds(self):
        bounds = TTLBounds(minimum=2.0, maximum=30.0)
        estimator = QuaestorTTLEstimator(bounds=bounds)
        for timestamp in range(0, 100):
            estimator.observe_write("record:veryhot", float(timestamp) / 10.0)
        assert estimator.estimate_record("record:veryhot", now=10.0) >= 2.0
        assert estimator.estimate_record("record:nevertouched", now=10.0) <= 30.0

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            QuaestorTTLEstimator(quantile=0.0)


class TestBaselines:
    def test_static_estimator_is_constant(self):
        estimator = StaticTTLEstimator(ttl=42.0, bounds=TTLBounds(minimum=1.0, maximum=100.0))
        assert estimator.estimate_record("a", 0.0) == 42.0
        assert estimator.estimate_query("q", ["a", "b"], 0.0) == 42.0

    def test_static_estimator_clamped(self):
        estimator = StaticTTLEstimator(ttl=1000.0, bounds=TTLBounds(minimum=1.0, maximum=60.0))
        assert estimator.estimate_record("a", 0.0) == 60.0

    def test_alex_unmodified_resources_get_cap(self):
        estimator = AlexTTLEstimator(percentage=0.2, cap=300.0, bounds=TTLBounds(0.0, 1000.0))
        assert estimator.estimate_record("never-modified", now=50.0) == 300.0

    def test_alex_ttl_is_fraction_of_age(self):
        estimator = AlexTTLEstimator(percentage=0.2, cap=300.0, bounds=TTLBounds(0.0, 1000.0))
        estimator.observe_write("record:r", timestamp=0.0)
        assert estimator.estimate_record("record:r", now=100.0) == pytest.approx(20.0)

    def test_alex_cap_applies(self):
        estimator = AlexTTLEstimator(percentage=0.5, cap=30.0, bounds=TTLBounds(0.0, 1000.0))
        estimator.observe_write("record:r", timestamp=0.0)
        assert estimator.estimate_record("record:r", now=1000.0) == 30.0

    def test_alex_query_uses_most_recently_modified_member(self):
        estimator = AlexTTLEstimator(percentage=0.2, cap=300.0, bounds=TTLBounds(0.0, 1000.0))
        estimator.observe_write("old", timestamp=0.0)
        estimator.observe_write("new", timestamp=90.0)
        ttl = estimator.estimate_query("q", ["old", "new"], now=100.0)
        assert ttl == pytest.approx(0.2 * 10.0)

    def test_adaptive_increases_when_unchanged(self):
        estimator = AdaptiveTTLEstimator(minimum_ttl=5.0, increment=10.0, bounds=TTLBounds(0.0, 1000.0))
        assert estimator.estimate_query("q", [], 0.0) == 5.0
        estimator.observe_unchanged("q")
        assert estimator.estimate_query("q", [], 0.0) == 15.0
        estimator.observe_unchanged("q")
        assert estimator.estimate_query("q", [], 0.0) == 25.0

    def test_adaptive_resets_on_change(self):
        estimator = AdaptiveTTLEstimator(minimum_ttl=5.0, increment=10.0, bounds=TTLBounds(0.0, 1000.0))
        estimator.observe_unchanged("q")
        estimator.observe_changed("q")
        assert estimator.estimate_query("q", [], 0.0) == 5.0

    def test_adaptive_treats_invalidation_as_change(self):
        estimator = AdaptiveTTLEstimator(minimum_ttl=5.0, increment=10.0, bounds=TTLBounds(0.0, 1000.0))
        estimator.observe_unchanged("q")
        estimator.observe_query_invalidation("q", actual_ttl=3.0, timestamp=0.0)
        assert estimator.estimate_query("q", [], 0.0) == 5.0

    def test_baseline_validation(self):
        with pytest.raises(ValueError):
            StaticTTLEstimator(ttl=-1.0)
        with pytest.raises(ValueError):
            AlexTTLEstimator(percentage=0.0)
        with pytest.raises(ValueError):
            AdaptiveTTLEstimator(minimum_ttl=0.0)
