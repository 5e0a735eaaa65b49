"""The run aggregate: the one place a summary is derived."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.faults import FaultAction, FaultEvent, FaultPlan
from repro.resilience import ResilienceConfig
from repro.simulation import CachingMode, RunAggregate, SimulationConfig, Simulator
from repro.workloads import DatasetSpec, WorkloadSpec

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
def faulted_run():
    """A classic run at RF 3 under gray faults, a crash and resilience."""
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
    config = SimulationConfig(
        mode=CachingMode.QUAESTOR,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(num_tables=3, documents_per_table=120, queries_per_table=12),
        num_clients=3,
        connections_per_client=25,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=30.0,
        max_operations=800,
        seed=42,
        num_shards=3,
        replication_factor=3,
        fault_plan=plan,
        resilience=ResilienceConfig(),
        failover_detection_delay=0.02,
    )
    return Simulator(config).run()


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

    def test_a_faulted_resilient_run_carries_every_block(self, faulted_run):
        aggregate = faulted_run.aggregate
        assert aggregate.replication_active
        assert aggregate.has_fault_injector and aggregate.has_resilience
        keys = list(faulted_run.summary())
        assert keys[: len(PLAIN_KEYS) + len(AVAILABILITY_KEYS)] == PLAIN_KEYS + AVAILABILITY_KEYS
        assert "faults_injected" in keys
        assert keys[-len(aggregate.resilience) - 1 :] == (
            list(aggregate.resilience) + ["degraded_served"]
        )
