"""Replica-read scale-out and the canned failover drills, pinned exactly.

Two seeded experiments of 6 000 operations each:

* **Scale-out** -- an origin-bound read workload (no web caches, 99 % record
  reads, one shard, per-node origin capacity 500 req/s) at replication
  factor 1, 2 and 3.  Delta-atomic reads round-robin over the primary and
  its replicas, so simulated throughput grows with the factor.
* **Failover drills** -- the full system (QUAESTOR mode, 2 shards, RF 2)
  under a primary crash with recovery and rolling primary crashes on both
  shards.

Every pinned number is a simulated metric of a seeded run.  The directional
asserts beside the pins are the claims a re-pin may not drop.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.simulation import CachingMode, SimulationConfig, Simulator
from repro.workloads import DatasetSpec, WorkloadSpec

OPERATIONS = 6_000


def scaleout_config(replication_factor: int) -> SimulationConfig:
    """Origin-bound record reads: no web caching, 99 % reads, one shard.

    The origin capacity (500 req/s per node) is set well below what the 400
    connections can offer over the wide-area RTT (~2 750 req/s), so the
    origin queue is the binding constraint and adding replica serving
    capacity translates directly into throughput.
    """
    return SimulationConfig(
        mode=CachingMode.UNCACHED,
        workload=WorkloadSpec(read_proportion=0.99, query_proportion=0.0, update_proportion=0.01),
        dataset=DatasetSpec(num_tables=2, documents_per_table=300, queries_per_table=30),
        num_clients=4,
        connections_per_client=100,
        matching_nodes=2,
        duration=60.0,
        max_operations=OPERATIONS,
        seed=42,
        num_shards=1,
        replication_factor=replication_factor,
        origin_capacity=500.0,
    )


def drill_config(plan: FaultPlan) -> SimulationConfig:
    """The full system under a fault plan: 2 shards, RF 2, early faults.

    No warm-up: the fault window sits at the very start of the run, and the
    availability metrics must *measure* it."""
    return SimulationConfig(
        mode=CachingMode.QUAESTOR,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(num_tables=2, documents_per_table=300, queries_per_table=30),
        num_clients=4,
        connections_per_client=50,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=60.0,
        warmup_fraction=0.0,
        max_operations=OPERATIONS,
        seed=13,
        num_shards=2,
        replication_factor=2,
        fault_plan=plan,
        failover_detection_delay=0.03,
    )


#: Fault times sit early in the run so crash, promotion and recovery all land
#: inside the simulated window.
DRILLS = {
    "primary-crash-recover": FaultPlan.primary_crash(shard=0, at=0.02, recover_at=0.12),
    "rolling-primary-crashes": FaultPlan.rolling_primary_crashes(
        shards=[0, 1], start=0.02, spacing=0.06, downtime=0.15
    ),
}

#: Simulated throughput (ops/s) at replication factor 1, 2 and 3.
SCALEOUT_THROUGHPUT = {1: 500.3659992817927, 2: 999.2812329202775, 3: 1499.5800072088311}
#: The RF 3 / RF 1 ratio at 20 000 operations; the 6 000-op ratio may not fall
#: below it divided by ``SCALEOUT_FLOOR_FACTOR``.
FULL_RUN_SCALEOUT = 2.988
SCALEOUT_FLOOR_FACTOR = 1.5

#: Per drill: request error rate, time to recover per outage, failovers,
#: faults injected, max staleness (s), replica read share.
DRILL_PINS = {
    "primary-crash-recover": (
        0.0005, [0.030000000000000002], 1.0, 2.0, 0.21916048665425497, 0.5181347150259067,
    ),
    "rolling-primary-crashes": (
        0.0005, [0.030000000000000002, 0.03], 2.0, 3.0, 0.21916048665425497, 0.40414507772020725,
    ),
}
#: The availability bound every drill's request error rate must stay under.
ERROR_RATE_BOUND = 0.05
#: Drills that failed over and recovered, and drills that measured errors,
#: at 20 000 operations; each must still do so.
FULL_RUN_RECOVERED = ("primary-crash-recover", "rolling-primary-crashes")
FULL_RUN_ERRORS = ("primary-crash-recover", "rolling-primary-crashes")


@pytest.fixture(scope="module")
def throughputs():
    return {
        factor: Simulator(scaleout_config(factor)).run().summary()["throughput"]
        for factor in SCALEOUT_THROUGHPUT
    }


class TestReplicaReadScaleOut:
    def test_throughput_is_pinned(self, throughputs):
        assert throughputs == SCALEOUT_THROUGHPUT

    def test_replicas_scale_reads_out(self, throughputs):
        # Replica reads silently routed to the primary read as ratio 1.0.
        ratio = throughputs[3] / throughputs[1]
        assert ratio > 1.0
        assert ratio >= FULL_RUN_SCALEOUT / SCALEOUT_FLOOR_FACTOR


@pytest.fixture(scope="module")
def drills():
    outcomes = {}
    for name, plan in DRILLS.items():
        simulator = Simulator(drill_config(plan))
        summary = simulator.run().summary()
        outcomes[name] = (
            summary["request_error_rate"],
            simulator.fault_injector.recovery_times(),
            summary["failovers"],
            summary["faults_injected"],
            summary["max_staleness_s"],
            summary["replica_read_share"],
        )
    return outcomes


class TestFailoverDrills:
    @pytest.mark.parametrize("name", sorted(DRILLS))
    def test_drill_is_pinned(self, drills, name):
        assert drills[name] == DRILL_PINS[name]

    @pytest.mark.parametrize("name", sorted(DRILLS))
    def test_drill_stays_available_and_measured(self, drills, name):
        error_rate, recoveries = drills[name][:2]
        assert error_rate <= ERROR_RATE_BOUND
        if name in FULL_RUN_RECOVERED:
            assert recoveries
        if name in FULL_RUN_ERRORS:
            # The outage is measured: with a zero rate the bound is vacuous.
            assert error_rate > 0.0
