"""The mergeable run aggregate: the one place a summary is derived."""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from repro.faults import FaultAction, FaultEvent, FaultPlan
from repro.resilience import ResilienceConfig
from repro.simulation import CachingMode, RunAggregate, merge_outcomes, partition_simulation
from repro.simulation.parallel import parity_config, run_partition

PLAIN_KEYS = [
    "throughput",
    "mean_read_latency_ms",
    "mean_query_latency_ms",
    "client_query_hit_rate",
    "client_read_hit_rate",
    "cdn_query_hit_rate",
    "cdn_read_hit_rate",
    "query_stale_rate",
    "read_stale_rate",
]
AVAILABILITY_KEYS = [
    "request_error_rate",
    "replica_read_share",
    "failovers",
    "max_staleness_s",
    "mean_staleness_s",
]
RESILIENCE_COUNTERS = {"resilience_retries": 3, "hedged_reads": 2}


@pytest.fixture(scope="module")
def outcomes():
    """Three real partition outcomes: gray faults + resilience at RF 3."""
    plan = FaultPlan(
        events=[
            FaultEvent(0.02, FaultAction.SLOW_SHARD, "shard:0", magnitude=4.0),
            FaultEvent(0.03, FaultAction.FLAKY_SHARD, "shard:1", magnitude=0.3),
            FaultEvent(0.03, FaultAction.CRASH, "shard:2"),
            FaultEvent(0.25, FaultAction.RESTORE, "shard:0"),
            FaultEvent(0.26, FaultAction.RESTORE, "shard:1"),
        ],
        name="aggregate",
    )
    config = replace(
        parity_config(CachingMode.QUAESTOR, replication_factor=3, num_partitions=3),
        fault_plan=plan,
        resilience=ResilienceConfig(),
        failover_detection_delay=0.02,
    )
    return [run_partition(job) for job in partition_simulation(config, 3)]


class TestMerge:
    def test_folding_one_aggregate_is_the_identity(self, outcomes):
        for outcome in outcomes:
            assert RunAggregate.merge([outcome.aggregate]) == outcome.aggregate
        assert RunAggregate.merge([]) == RunAggregate()

    def test_outcomes_merge_the_same_in_any_hand_over_order(self, outcomes):
        """``merge_outcomes`` sorts by partition id before the (order-sensitive)
        float fold, so the order workers finish in cannot reach a result."""
        expected = merge_outcomes(outcomes, CachingMode.QUAESTOR, num_workers=1)
        assert [outcome.partition_id for outcome in expected.outcomes] == [0, 1, 2]
        for shuffled in itertools.permutations(outcomes):
            merged = merge_outcomes(shuffled, CachingMode.QUAESTOR, num_workers=1)
            assert merged.aggregate == expected.aggregate
            assert merged.summary() == expected.summary()
            assert merged.outcomes == expected.outcomes

    def test_counts_add_extrema_take_max_and_rates_are_rederived(self):
        left = RunAggregate(
            measured_operations=4,
            measured_duration=2.0,
            throughput=2.0,
            latency={"read": (1.0, 2)},
            level_counts={"read": {"client": 1, "origin": 1}},
            stale_counts={"audited_read": 2, "stale_read": 1},
            max_staleness=0.5,
        )
        right = RunAggregate(
            measured_operations=2,
            measured_duration=1.0,
            throughput=2.0,
            latency={"read": (3.0, 2), "query": (1.0, 1)},
            level_counts={"read": {"client": 2}},
            stale_counts={"audited_read": 2},
            max_staleness=0.25,
        )
        merged = RunAggregate.merge([left, right])
        assert merged.measured_operations == 6
        assert merged.measured_duration == 2.0
        assert merged.max_staleness == 0.5
        summary = merged.summary()
        assert summary["throughput"] == 4.0
        assert summary["mean_read_latency_ms"] == 1000.0
        assert summary["mean_query_latency_ms"] == 1000.0
        assert summary["client_read_hit_rate"] == 0.75
        assert summary["read_stale_rate"] == 0.25
        # Folding never writes into its inputs.
        assert left.level_counts == {"read": {"client": 1, "origin": 1}}
        assert left.latency == {"read": (1.0, 2)}


class TestSummaryKeys:
    """Which key blocks a summary carries is decided by the presence flags."""

    def test_a_plain_run_has_exactly_the_plain_keys(self):
        assert list(RunAggregate().summary()) == PLAIN_KEYS
        # Counters alone never grow the summary: no key sniffing.
        sneaky = RunAggregate(
            faults_fired=3, recovery_times=(1.0,), failovers=2, resilience=RESILIENCE_COUNTERS
        )
        assert list(sneaky.summary()) == PLAIN_KEYS

    def test_replication_adds_the_availability_block(self):
        assert list(RunAggregate(replication_active=True).summary()) == (
            PLAIN_KEYS + AVAILABILITY_KEYS
        )

    def test_fault_keys_need_the_injector_flag_and_recoveries(self):
        fired = RunAggregate(replication_active=True, has_fault_injector=True, faults_fired=2)
        assert list(fired.summary()) == PLAIN_KEYS + AVAILABILITY_KEYS + ["faults_injected"]
        recovered = replace(fired, recovery_times=(1.0, 3.0))
        summary = recovered.summary()
        assert summary["mean_time_to_recover_s"] == 2.0
        assert summary["max_time_to_recover_s"] == 3.0

    def test_resilience_keys_need_the_resilience_flag(self):
        off = RunAggregate(replication_active=True, resilience=RESILIENCE_COUNTERS)
        assert list(off.summary()) == PLAIN_KEYS + AVAILABILITY_KEYS
        on = replace(off, has_resilience=True, stale_counts={"degraded_served": 4})
        assert list(on.summary()) == (
            PLAIN_KEYS + AVAILABILITY_KEYS + list(RESILIENCE_COUNTERS) + ["degraded_served"]
        )
        assert on.summary()["degraded_served"] == 4.0
        assert all(isinstance(value, float) for value in on.summary().values())

    def test_a_fold_carries_a_block_if_any_partition_does(self, outcomes):
        merged = RunAggregate.merge([RunAggregate(), outcomes[0].aggregate])
        assert merged.replication_active and merged.has_fault_injector and merged.has_resilience
        assert list(merged.summary()) == list(outcomes[0].aggregate.summary())
