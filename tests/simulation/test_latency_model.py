"""LatencyModel: Gaussian jitter around a mean, clamped at a minimum."""

from __future__ import annotations

import random
import statistics

import pytest

from repro.simulation.latency import LatencyModel


class TestGauss:
    def test_seeded_stream_is_random_gauss(self):
        model = LatencyModel(0.1, jitter=0.01)
        model.reseed(17)
        reference = random.Random(17)
        assert model.sample() == pytest.approx(
            max(0.0, reference.gauss(0.1, 0.01)), abs=0.0
        )

    def test_positional_construction_still_works(self):
        model = LatencyModel(0.1, 0.01, 0.05)
        assert model.minimum == pytest.approx(0.05)
        assert model.jitter == pytest.approx(0.01)

    def test_zero_jitter_returns_the_mean(self):
        assert LatencyModel(0.1).sample() == pytest.approx(0.1)

    def test_samples_have_the_configured_mean_and_spread(self):
        model = LatencyModel(0.145, jitter=0.03)
        model.reseed(23)
        samples = [model.sample() for _ in range(60_000)]
        assert statistics.fmean(samples) == pytest.approx(0.145, rel=0.02)
        assert statistics.stdev(samples) == pytest.approx(0.03, rel=0.05)

    def test_seeded_determinism(self):
        first = LatencyModel(0.1, jitter=0.02)
        second = LatencyModel(0.1, jitter=0.02)
        first.reseed(7)
        second.reseed(7)
        assert [first.sample() for _ in range(32)] == [second.sample() for _ in range(32)]

    def test_minimum_clamp_applies(self):
        model = LatencyModel(0.1, jitter=0.08, minimum=0.09)
        model.reseed(3)
        samples = [model.sample() for _ in range(1000)]
        assert all(sample >= 0.09 for sample in samples)
        assert 0.09 in samples  # draws below the minimum are clamped to it


class TestValidation:
    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(-0.1)
        with pytest.raises(ValueError):
            LatencyModel(0.1, jitter=-0.01)
        with pytest.raises(ValueError):
            LatencyModel(0.1, minimum=-0.01)
