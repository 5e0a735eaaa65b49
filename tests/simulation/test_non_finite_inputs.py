"""Non-finite latencies and timestamps are rejected where they enter.

A NaN mean used to sample as ``0.0`` (``max(minimum, nan)`` keeps the
minimum), which made every request on that path free; an infinite mean
sampled ``inf``; a NaN timestamp passed ``timestamp < 0`` and popped
before every finite event, corrupting the heap order; and a NaN capacity,
duration or failover delay passed ``SimulationConfig``'s ``<= 0`` checks;
a NaN metrics interval never sampled and a fractional or NaN
``sample_every`` traced every third request or none.  Each case below
failed silently (or late) before and raises now.
"""

from __future__ import annotations

import math

import pytest

from repro.clock import VirtualClock
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, ObservabilityConfig, TraceRecorder
from repro.simulation import CachingMode, EventQueue, LatencyModel, SimulationConfig, Simulator
from repro.workloads.dataset import DatasetSpec

NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("value", NON_FINITE)
def test_a_non_finite_mean_is_rejected(value):
    with pytest.raises(ValueError, match="mean must be finite"):
        LatencyModel(value, jitter=0.001)


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


@pytest.mark.parametrize(
    "field, value",
    [
        # NaN passed the old ``<= 0`` checks: the capacity limit was silently
        # switched off, a NaN duration ran no operation and reported a
        # throughput of 0.0, and a NaN detection delay failed mid-run when
        # the failover was scheduled.
        ("origin_capacity", math.nan),
        ("duration", math.nan),
        ("failover_detection_delay", math.nan),
        ("failover_detection_delay", math.inf),
        ("failover_detection_delay", -1.0),
        # A fractional count failed as a bare TypeError inside run() or
        # while the deployment was built.
        ("connections_per_client", 2.5),
        ("num_clients", 2.5),
        ("num_shards", 1.5),
        ("replication_factor", 2.5),
        ("matching_nodes", 2.5),
        ("max_operations", 10.5),
        # bool is an int subclass: True ran with one shard or one client.
        ("num_shards", True),
        ("num_clients", True),
    ],
)
def test_a_hostile_simulation_config_is_rejected_at_construction(field, value):
    with pytest.raises(ConfigurationError):
        SimulationConfig(**{field: value})


COUNT_FIELDS = (
    "num_clients", "connections_per_client", "num_shards", "replication_factor",
    "matching_nodes", "max_operations",
)


@pytest.mark.parametrize("value", [0, -2, 3.0, False, "2"])
@pytest.mark.parametrize("field", COUNT_FIELDS)
def test_every_count_field_takes_only_a_positive_int(field, value):
    # An integral float (3.0) still fails later in range(); False counts as
    # zero; a numeric string never compares; each is refused by name.
    with pytest.raises(ConfigurationError, match=f"{field} must be a positive integer"):
        SimulationConfig(**{field: value})


@pytest.mark.parametrize("field", COUNT_FIELDS)
def test_every_count_field_accepts_a_positive_int(field):
    config = SimulationConfig(**{field: 2})
    assert getattr(config, field) == 2


@pytest.mark.parametrize("field", ["origin_capacity", "duration"])
def test_an_infinite_capacity_or_duration_stays_accepted_as_unbounded(field):
    # +inf is accepted on purpose: an infinite capacity spaces requests by
    # 1/inf = 0 s (no queueing at that tier), and an infinite duration
    # leaves max_operations as the only bound.  Both are meaningful limits,
    # unlike NaN, so the run completes its whole operation budget.
    config = SimulationConfig(
        **{field: math.inf},
        mode=CachingMode.UNCACHED,
        dataset=DatasetSpec(num_tables=1, documents_per_table=40, queries_per_table=4),
        num_clients=1,
        connections_per_client=2,
        max_operations=40,
    )
    simulator = Simulator(config)
    result = simulator.run()
    assert simulator.total_operations == 40
    assert math.isfinite(result.throughput) and result.throughput > 0


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
    assert queue.pop_if_before(math.inf)[0] == 5.0


def test_a_nan_timestamp_cannot_jump_the_queue():
    """The reported corruption: NaN used to pop before 0.5 and 1.0."""
    queue = EventQueue()
    queue.schedule(0.5, lambda: None)
    queue.schedule(1.0, lambda: None)
    with pytest.raises(ValueError):
        queue.schedule(float("nan"), lambda: None)
    assert [queue.pop_if_before(math.inf)[0] for _ in range(2)] == [0.5, 1.0]


def test_a_nan_metrics_interval_is_rejected():
    # A NaN interval was accepted and then never sampled: ``start >= nan``
    # is always false, so the series silently kept only the closing point.
    with pytest.raises(ValueError, match="interval"):
        ObservabilityConfig(metrics_interval=math.nan)
    with pytest.raises(ValueError, match="interval"):
        MetricsRegistry(tuple, interval=math.nan)


@pytest.mark.parametrize("sample_every", [1.5, math.nan, True])
def test_a_sample_every_that_is_not_an_int_of_at_least_one_is_rejected(sample_every):
    # 1.5 traced every 3rd root (``index % 1.5 == 0``) and NaN traced none.
    with pytest.raises(ValueError, match="sample_every"):
        ObservabilityConfig(sample_every=sample_every)
    with pytest.raises(ValueError, match="sample_every"):
        TraceRecorder(VirtualClock(), sample_every=sample_every)


def test_an_infinite_metrics_interval_keeps_only_the_closing_snapshot():
    config = SimulationConfig(
        mode=CachingMode.UNCACHED,
        dataset=DatasetSpec(num_tables=1, documents_per_table=40, queries_per_table=4),
        num_clients=1,
        connections_per_client=2,
        max_operations=40,
        warmup_fraction=0.0,
        observability=ObservabilityConfig(trace=False, metrics_interval=math.inf),
    )
    simulator = Simulator(config)
    simulator.run()
    counters, _gauges, _histograms, series = simulator.metrics_state()
    assert len(series) == 1
    timestamp, snapshot, _ = series[0]
    assert timestamp == simulator.clock.now()
    assert snapshot == counters
    assert sum(value for name, _labels, value in counters if name == "sim_operations_total") == 40
