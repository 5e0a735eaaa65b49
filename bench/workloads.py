"""The four pinned closed-loop workloads.

Every workload is 4 client instances x 6 connections = 24 callers, each
issuing its next operation when the previous one completes, against a fresh
:class:`repro.simulation.Simulator`.  A segment runs a *fixed operation
budget* (``duration`` is never binding), so every count repeats exactly for a
seed.  The names are fixed: later issues cite them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Wall seconds one full-size segment takes on the 2-core reference box;
#: ``--seconds`` is turned into a segment count with it (never into a smaller
#: per-segment budget, which would change every simulated number).
NOMINAL_SEGMENT_SECONDS = 5
#: The untimed warm-up segment runs this fraction of the budget.
WARMUP_FRACTION = 1 / 8
SMOKE_OPERATIONS = 1500
DEFAULT_SEED = 42


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line for ``BENCHMARK.json``: which layers it stresses or bypasses.
    why: str
    operations: int
    #: Runs the sharded, replicated, fault-injected deployment with every
    #: recorder on (the only place the fleet-only layers execute at all).
    fleet: bool = False


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "read_hot",
        "Paper's read-heavy mix on a working set that fits the caches, >=16 EBF refreshes: "
        "client+caching+bloom+simulation do ~2/3 of the work, db <10 %.",
        80_000,
    ),
    Workload(
        "origin_bound",
        "Uncached control on 20k docs: every op lands on core->db (db ~half of self time); "
        "a caching/bloom/client optimisation must show no change here.",
        40_000,
    ),
    Workload(
        "write_churn",
        "30 % writes beside reads: change stream, InvaliDB matching, TTL estimation, EBF invalidation "
        "and CDN purges; a read-path gain that taxes the write path shows here.",
        40_000,
    ),
    Workload(
        "fleet_chaos",
        "4 shards x RF 3 under brownout+flaky+primary crash with resilience, history and tracing on: "
        "the only run of cluster/replication/resilience/faults/verify/obs.",
        20_000,
        fleet=True,
    ),
)
BY_NAME: Dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}


def segments_for(seconds: int) -> int:
    """How many timed segments fit ``--seconds`` (at least one)."""
    return max(1, round(seconds / NOMINAL_SEGMENT_SECONDS))


def build_config(name: str, seed: int, segment: int, operations: int):
    """The :class:`SimulationConfig` of one segment (``segment`` -1 = warm-up)."""
    from repro.faults import FaultPlan
    from repro.obs import ObservabilityConfig
    from repro.resilience import ResilienceConfig
    from repro.simulation import CachingMode, SimulationConfig
    from repro.workloads.dataset import DatasetSpec
    from repro.workloads.generator import WorkloadSpec

    workload_seed = 11 + seed + segment
    small = DatasetSpec(num_tables=4, documents_per_table=1000, queries_per_table=50)
    specific = {
        "read_hot": dict(
            mode=CachingMode.QUAESTOR,
            workload=WorkloadSpec(seed=workload_seed),  # read_heavy(): 49.5/49.5/1, zipf 0.7
            dataset=small,
        ),
        "origin_bound": dict(
            mode=CachingMode.UNCACHED,
            workload=WorkloadSpec(seed=workload_seed),
            dataset=DatasetSpec(num_tables=4, documents_per_table=5000, queries_per_table=100),
        ),
        "write_churn": dict(
            mode=CachingMode.QUAESTOR,
            workload=WorkloadSpec(
                read_proportion=0.35, query_proportion=0.35, update_proportion=0.20,
                insert_proportion=0.05, delete_proportion=0.05, seed=workload_seed,
            ),
            dataset=small,
        ),
        "fleet_chaos": dict(
            mode=CachingMode.QUAESTOR,
            num_shards=4,
            replication_factor=3,
            workload=WorkloadSpec(
                read_proportion=0.5, query_proportion=0.4, update_proportion=0.1,
                seed=workload_seed,
            ),
            dataset=small,
            resilience=ResilienceConfig(),
            record_history=True,
            observability=ObservabilityConfig.full(),
            # ~43 simulated seconds at full size, so every window overlaps
            # live traffic; FaultPlan sorts the merged events by time.
            fault_plan=FaultPlan(
                events=(
                    *FaultPlan.brownout(shard=0, at=5, recover_at=25).events,
                    *FaultPlan.flaky(shard=1, at=15, recover_at=35).events,
                    *FaultPlan.primary_crash(shard=2, at=30, recover_at=40).events,
                ),
                name="brownout+flaky+primary-crash",
            ),
        ),
    }[name]
    return SimulationConfig(
        seed=seed + segment,
        max_operations=operations,
        num_clients=4,
        connections_per_client=6,
        duration=600,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        warmup_fraction=0.2,
        audit_staleness=True,
        **specific,
    )


def checker_budgets(config) -> Tuple[float, float]:
    """(Delta, degraded) staleness budgets for the offline checkers, in seconds.

    Ordinary reads: EBF refresh + scheduling slack, plus the failover window
    (detection + the crash's 10 s downtime + slack).  Stale-if-error serves
    are exempt from the Delta check here: the policy bounds how long past its
    *expiry* an entry may be served, not how long ago it was superseded, so
    on outages this long a degraded serve is only as fresh as the outage is
    short (27.7 s observed at seed 42 against the policy's nominal
    Delta + 8 s).  Any finite budget would fail on some seed; the session
    checkers still cover every degraded serve.  See README, "Findings".
    """
    delta = config.ebf_refresh_interval + 1.5 + config.failover_detection_delay + 10 + 1
    return delta, float("inf")
