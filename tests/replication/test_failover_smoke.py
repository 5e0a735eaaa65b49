"""Failure-scenario smoke: seeded crash + recover inside a full simulation.

This is the CI gate for the acceptance criteria of the replication
subsystem: a seeded crash-and-recover run completes with zero uncaught
exceptions, reports bounded unavailability in its summary, stays within the
configured staleness budget, and is bit-for-bit deterministic for a fixed
seed.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultAction, FaultPlan
from repro.simulation import CachingMode, SimulationConfig, Simulator
from repro.workloads import DatasetSpec, WorkloadSpec


def crash_recover_config(seed: int = 13) -> SimulationConfig:
    return SimulationConfig(
        mode=CachingMode.QUAESTOR,
        # 10 % updates: enough writes land inside the short outage window
        # that the measured error rate is deterministically non-zero.
        workload=WorkloadSpec.with_update_rate(0.10),
        dataset=DatasetSpec(num_tables=2, documents_per_table=200, queries_per_table=20),
        num_clients=4,
        connections_per_client=25,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=60.0,
        # No warm-up: the outage must land inside the *measured* phase, so
        # the reported error rate genuinely covers the crash window.
        warmup_fraction=0.0,
        max_operations=4_000,
        seed=seed,
        num_shards=2,
        replication_factor=2,
        # Crash early so the outage, the failover and the recovery all land
        # inside the simulated window regardless of achieved throughput.
        fault_plan=FaultPlan.primary_crash(shard=0, at=0.02, recover_at=0.12),
        failover_detection_delay=0.03,
    )


class TestCrashRecoverScenario:
    def test_completes_with_bounded_unavailability_and_staleness(self):
        config = crash_recover_config()
        simulator = Simulator(config)
        result = simulator.run()  # zero uncaught exceptions == reaching here
        summary = result.summary()

        # The availability metrics are measured and bounded: the outage
        # rejects *some* requests (writes and the pre-failover window -- the
        # rate must not be structurally zero, which would mean the outage
        # fell outside the measured phase), but only a small fraction of the
        # run may fail.
        assert 0.0 < summary["request_error_rate"] < 0.05

        # The fault plan actually fired: crash, failover, recovery.
        actions = [entry["action"] for entry in simulator.fault_injector.timeline]
        assert actions.count("crash") == 1
        assert "failover" in actions
        assert "recover" in actions

        # Replica reads happened (the read path really is replicated).
        assert summary["replica_read_share"] > 0.0

        # Staleness stays within the configured budget: Delta (the EBF
        # refresh interval) plus the CDN invalidation delay, the replication
        # lag and the failover detection window, with jitter headroom.
        topology = config.topology
        budget = (
            config.ebf_refresh_interval
            + topology.invalidation_delay.mean
            + 5 * topology.invalidation_delay.jitter
            + topology.replication_lag.mean
            + 5 * topology.replication_lag.jitter
            + config.failover_detection_delay
        )
        assert summary["max_staleness_s"] <= budget

    def test_summary_is_deterministic_for_a_fixed_seed(self):
        first = Simulator(crash_recover_config()).run().summary()
        second = Simulator(crash_recover_config()).run().summary()
        assert first == second

    def test_different_seed_changes_the_interleaving_but_still_completes(self):
        result = Simulator(crash_recover_config(seed=29)).run()
        assert result.operations > 0
        assert result.summary()["request_error_rate"] < 0.05

    def test_chaos_plan_is_reproducible_and_survivable(self):
        plan_a = FaultPlan.chaos(
            duration=0.5, seed=7, mean_interval=0.1, downtime=0.05,
            num_shards=2, replication_factor=2,
        )
        plan_b = FaultPlan.chaos(
            duration=0.5, seed=7, mean_interval=0.1, downtime=0.05,
            num_shards=2, replication_factor=2,
        )
        assert plan_a.events == plan_b.events
        assert len(plan_a) > 0

        config = crash_recover_config()
        config.fault_plan = plan_a
        result = Simulator(config).run()
        assert result.operations > 0


class TestFaultPlanConstruction:
    def test_events_are_sorted_by_time(self):
        plan = FaultPlan(
            events=[
                # Deliberately out of order.
                FaultPlan.primary_crash(at=30.0).events[0],
                FaultPlan.primary_crash(at=10.0).events[0],
            ]
        )
        times = [event.time for event in plan.events]
        assert times == sorted(times)

    def test_primary_crash_recover_must_follow_crash(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            FaultPlan.primary_crash(at=30.0, recover_at=20.0)

    def test_partition_requires_a_peer(self):
        from repro.errors import ConfigurationError
        from repro.faults import FaultEvent

        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.PARTITION, "s0:n0")

    def test_replica_partition_plan_round_trips_through_a_simulation(self):
        config = crash_recover_config()
        config.fault_plan = FaultPlan.replica_partition(
            shard=0, replica_index=1, at=0.02, heal_at=0.10
        )
        result = Simulator(config).run()
        assert result.operations > 0
        # A partition alone makes nothing unavailable.
        assert result.summary()["request_error_rate"] == 0.0


class TestRoleTargetResolution:
    def test_second_crash_of_the_same_role_hits_the_promoted_primary(self):
        # Regression: role targets resolve at fire time.  Two "shard:0"
        # crashes must take down first the original primary, then the
        # replica promoted in between -- not no-op on the dead ex-primary.
        from repro.clock import VirtualClock
        from repro.cluster import ClusterClient, QuaestorCluster
        from repro.faults import FaultAction, FaultEvent, FaultInjector
        from repro.replication import ReplicationConfig
        from repro.simulation import EventQueue
        from repro.simulation.latency import LatencyModel

        clock = VirtualClock()
        cluster = QuaestorCluster(
            num_shards=1, clock=clock, matching_nodes=1,
            replication=ReplicationConfig(
                replication_factor=3, lag=LatencyModel(0.01)
            ),
        )
        ClusterClient(cluster).handle_insert("posts", {"_id": "x", "views": 0})
        events = EventQueue()
        plan = FaultPlan(
            events=[
                FaultEvent(1.0, FaultAction.CRASH, "shard:0"),
                FaultEvent(5.0, FaultAction.CRASH, "shard:0"),
            ]
        )
        injector = FaultInjector(cluster, events, clock, plan, detection_delay=0.5)
        injector.arm()
        events.run_until(clock, 10.0)

        crashed = [e["node"] for e in injector.timeline if e["action"] == "crash"]
        assert crashed == ["s0:n0", "s0:n1"]
        assert sum(1 for e in injector.timeline if e["action"] == "failover") == 2
        # The single failover source of truth is the cluster counter.
        assert cluster.counters.get("failovers") == 2

    def test_heal_after_failover_heals_the_originally_cut_link(self):
        # Regression: PARTITION resolves its role target at fire time and
        # the matching HEAL must heal that same pair, even when a failover
        # moved the shard's primary in between -- otherwise the partition
        # entry lingers forever and re-applies on a later promotion.
        from repro.clock import VirtualClock
        from repro.cluster import ClusterClient, QuaestorCluster
        from repro.faults import FaultAction, FaultEvent, FaultInjector
        from repro.replication import ReplicationConfig
        from repro.simulation import EventQueue
        from repro.simulation.latency import LatencyModel

        clock = VirtualClock()
        cluster = QuaestorCluster(
            num_shards=1, clock=clock, matching_nodes=1,
            replication=ReplicationConfig(
                replication_factor=3, lag=LatencyModel(0.01)
            ),
        )
        ClusterClient(cluster).handle_insert("posts", {"_id": "x", "views": 0})
        events = EventQueue()
        plan = FaultPlan(
            events=[
                FaultEvent(1.0, FaultAction.PARTITION, "shard:0", peer="s0:n2"),
                FaultEvent(2.0, FaultAction.CRASH, "shard:0"),   # n0 -> failover to n1
                FaultEvent(5.0, FaultAction.HEAL, "shard:0", peer="s0:n2"),
            ]
        )
        injector = FaultInjector(cluster, events, clock, plan, detection_delay=0.5)
        injector.arm()
        events.run_until(clock, 10.0)

        group = cluster.groups[0]
        # The heal removed the (n0, n2) pair the partition actually cut:
        # no zombie partition remains to re-apply on future promotions.
        assert not group._partitions
        assert not group.node("s0:n2").link.partitioned
