"""Non-finite latencies and timestamps are rejected where they enter.

A NaN mean used to sample as ``0.0`` (``max(minimum, nan)`` keeps the
minimum), which made every request on that path free; an infinite mean
sampled ``inf``; and a NaN timestamp passed ``timestamp < 0`` and popped
before every finite event, corrupting the heap order.  Each case below
failed silently before and raises now.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.simulation import EventQueue, LatencyModel, SimulationConfig

NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("distribution", ["gauss", "lognormal"])
def test_a_non_finite_mean_is_rejected(value, distribution):
    with pytest.raises(ValueError, match="mean must be finite"):
        LatencyModel(value, jitter=0.001, distribution=distribution)


@pytest.mark.parametrize("value", NON_FINITE)
def test_a_non_finite_jitter_is_rejected(value):
    with pytest.raises(ValueError, match="jitter must be finite"):
        LatencyModel(0.1, jitter=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_a_non_finite_minimum_is_rejected(value):
    with pytest.raises(ValueError, match="minimum must be finite"):
        LatencyModel(0.1, jitter=0.01, minimum=value)


@pytest.mark.parametrize("value", NON_FINITE + (0.0, -1.0))
def test_a_non_finite_or_non_positive_ebf_refresh_interval_is_rejected(value):
    # NaN and inf silently disabled EBF refreshes: staleness became unbounded.
    with pytest.raises(ConfigurationError, match="ebf_refresh_interval"):
        SimulationConfig(ebf_refresh_interval=value)


def test_the_reported_cases():
    with pytest.raises(ValueError):
        LatencyModel(float("nan"), jitter=0.001)  # sampled 0.0: a free request
    with pytest.raises(ValueError):
        LatencyModel(float("inf"))  # sampled inf


@pytest.mark.parametrize("timestamp", NON_FINITE)
def test_schedule_rejects_a_non_finite_timestamp(timestamp):
    queue = EventQueue()
    with pytest.raises(ValueError, match="finite"):
        queue.schedule(timestamp, lambda: None)
    assert len(queue) == 0


@pytest.mark.parametrize("timestamp", NON_FINITE)
def test_schedule_many_rejects_a_non_finite_timestamp_atomically(timestamp):
    queue = EventQueue()
    queue.schedule(5.0, lambda: None)
    with pytest.raises(ValueError, match="finite"):
        queue.schedule_many([(0.5, lambda: None), (timestamp, lambda: None)])
    assert len(queue) == 1
    assert queue.peek_time() == 5.0


def test_a_nan_timestamp_cannot_jump_the_queue():
    """The reported corruption: NaN used to pop before 0.5 and 1.0."""
    queue = EventQueue()
    queue.schedule(0.5, lambda: None)
    queue.schedule(1.0, lambda: None)
    with pytest.raises(ValueError):
        queue.schedule(float("nan"), lambda: None)
    assert [queue.pop().timestamp for _ in range(2)] == [0.5, 1.0]
