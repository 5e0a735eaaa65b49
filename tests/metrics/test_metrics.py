"""Tests for histograms and counters."""

from __future__ import annotations

import pytest

from repro.metrics import Counter, Histogram


class TestHistogram:
    def test_mean_and_max(self):
        histogram = Histogram()
        histogram.record_many([1.0, 2.0, 3.0, 4.0])
        assert histogram.mean == 2.5
        assert histogram.maximum == 4.0
        assert histogram.count == 4

    def test_empty_histogram(self):
        histogram = Histogram()
        assert histogram.mean == 0.0
        assert histogram.percentile(0.99) == 0.0
        assert histogram.cdf() == []

    def test_percentiles(self):
        histogram = Histogram()
        histogram.record_many(range(1, 101))
        assert histogram.percentile(0.0) == 1
        assert histogram.percentile(1.0) == 100
        assert histogram.percentile(0.5) == pytest.approx(50.5)
        assert histogram.percentile(0.99) == pytest.approx(99.01)

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram().percentile(1.5)

    def test_cdf_at_points(self):
        histogram = Histogram()
        histogram.record_many([1, 2, 3, 4])
        cdf = dict(histogram.cdf([0, 2, 5]))
        assert cdf[0] == 0.0
        assert cdf[2] == 0.5
        assert cdf[5] == 1.0

    def test_cdf_without_points_is_monotone(self):
        histogram = Histogram()
        histogram.record_many([5, 1, 3, 3, 2])
        cdf = histogram.cdf()
        probabilities = [probability for _value, probability in cdf]
        assert probabilities == sorted(probabilities)
        assert probabilities[-1] == 1.0

    def test_buckets(self):
        histogram = Histogram()
        histogram.record_many([0.5, 1.5, 1.7, 9.0])
        buckets = histogram.buckets(width=1.0)
        assert buckets[0.0] == 1
        assert buckets[1.0] == 2
        assert buckets[9.0] == 1

    def test_bucket_cap(self):
        histogram = Histogram()
        histogram.record_many([1.0, 500.0])
        buckets = histogram.buckets(width=1.0, maximum=10.0)
        assert max(buckets) <= 10.0

    def test_bucket_value_equal_to_cap_stays_below_it(self):
        """A sample exactly at the cap must fold into the last bucket that
        *starts below* the cap, never open a bucket at (or past) it."""
        histogram = Histogram()
        histogram.record_many([10.0, 9.5, 1.0])
        buckets = histogram.buckets(width=1.0, maximum=10.0)
        assert max(buckets) < 10.0
        assert buckets == {1.0: 1, 9.0: 2}

    def test_bucket_value_beyond_cap_clamps_to_last_bucket(self):
        histogram = Histogram()
        histogram.record_many([500.0, 10.0, 10.0001])
        buckets = histogram.buckets(width=2.0, maximum=10.0)
        assert buckets == {8.0: 3}

    def test_bucket_cap_not_a_multiple_of_width(self):
        """A cap mid-bucket keeps the final partial bucket: its lower bound
        is below the cap, so overflow samples land there."""
        histogram = Histogram()
        histogram.record_many([10.2, 99.0, 3.0])
        buckets = histogram.buckets(width=1.0, maximum=10.5)
        assert buckets == {3.0: 1, 10.0: 2}
        assert max(buckets) < 10.5

    def test_bucket_default_cap_unchanged(self):
        """Without an explicit maximum the behavior is untouched: every
        sample keeps its natural bucket."""
        histogram = Histogram()
        histogram.record_many([0.5, 1.5, 1.7, 9.0])
        assert histogram.buckets(width=1.0) == {0.0: 1, 1.0: 2, 9.0: 1}

    def test_bucket_width_validation(self):
        with pytest.raises(ValueError):
            Histogram().buckets(0.0)

    def test_merge(self):
        first, second = Histogram(), Histogram()
        first.record_many([1.0])
        second.record_many([3.0])
        first.merge(second)
        assert first.count == 2
        assert first.mean == 2.0


class TestCounter:
    def test_counter_increment_and_get(self):
        counter = Counter()
        counter.increment("hits")
        counter.increment("hits", 2)
        assert counter.get("hits") == 3
        assert counter["misses"] == 0
        assert counter.as_dict() == {"hits": 3}

    def test_counter_rejects_going_below_zero(self):
        """Counters are monotone tallies: a decrement below zero is a
        modelling bug and raises instead of silently going negative."""
        counter = Counter()
        counter.increment("hits", 2)
        with pytest.raises(ValueError, match="below zero"):
            counter.increment("hits", -3)
        # The failed decrement must not corrupt the stored total.
        assert counter.get("hits") == 2
        # Decrements that stay at or above zero remain legal.
        assert counter.increment("hits", -2) == 0

    def test_counter_rejects_initial_decrement(self):
        with pytest.raises(ValueError, match="below zero"):
            Counter().increment("fresh", -1)
