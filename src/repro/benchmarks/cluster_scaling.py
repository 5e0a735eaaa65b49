"""Scale-out experiment: throughput and hit rates vs number of shards.

This experiment is not a figure from the paper -- it measures the sharded
deployment layer (:mod:`repro.cluster`) the reproduction adds on top: the
same workload is driven against 1/2/4/8-shard deployments whose origin
capacity is *per shard*, so aggregate origin capacity grows with the fleet.
Record reads and writes route to one shard each and scale near-linearly;
scatter/gather queries consume capacity on every shard and therefore do not,
which is exactly the asymmetry a consistent-hash fan-out architecture has in
production.

The workload is read-heavy but record-leaning (more reads than queries) with
a 10 % update rate, so the origin tier -- not the client tier -- is the
bottleneck being scaled.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.benchmarks.harness import BenchmarkScale, SMALL_SCALE, run_mode
from repro.benchmarks.report import ExperimentReport
from repro.simulation.simulator import CachingMode, SimulationResult
from repro.workloads.generator import WorkloadSpec

#: Shard counts swept by default (powers of two, as cloud deployments scale).
DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)


def scaling_workload(seed: int = 11) -> WorkloadSpec:
    """The scale-out workload: record-leaning reads with a 10 % update rate."""
    return WorkloadSpec(
        read_proportion=0.70,
        query_proportion=0.20,
        update_proportion=0.10,
        zipf_constant=0.7,
        seed=seed,
    )


def run_cluster_scaling(
    scale: BenchmarkScale = SMALL_SCALE,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    connections: int = 240,
    origin_capacity_per_shard: float = 250.0,
    ebf_refresh_interval: float = 1.0,
    max_operations: Optional[int] = None,
    seed: int = 42,
) -> ExperimentReport:
    """Sweep shard counts and report throughput plus aggregate cache hit rate.

    ``origin_capacity_per_shard`` is deliberately small so the origin tier
    saturates and scale-out is visible at laptop scale; the client tier keeps
    its default (ample) capacity.
    """
    report = ExperimentReport(
        experiment="Cluster scaling",
        description=(
            "Throughput and cache hit rates for 1/2/4/8-shard Quaestor "
            "deployments (origin capacity is per shard)."
        ),
        columns=[
            "shards",
            "throughput",
            "per_shard_throughput",
            "operations",
            "aggregate_hit_rate",
            "client_hit_rate",
            "cdn_hit_rate",
            "routing_imbalance",
        ],
    )
    for num_shards in shard_counts:
        result = run_mode(
            scale,
            CachingMode.QUAESTOR,
            connections,
            workload=scaling_workload(),
            ebf_refresh_interval=ebf_refresh_interval,
            max_operations=max_operations,
            origin_capacity=origin_capacity_per_shard,
            num_shards=num_shards,
            seed=seed,
        )
        report.add_row(
            shards=num_shards,
            throughput=result.throughput,
            per_shard_throughput=result.throughput / num_shards,
            operations=result.operations,
            aggregate_hit_rate=aggregate_hit_rate(result),
            client_hit_rate=result.client_read_hit_rate,
            cdn_hit_rate=result.cdn_read_hit_rate,
            routing_imbalance=result.server_statistics.get("routing_imbalance", 1.0),
        )
    report.add_note(
        "Expected shape: aggregate throughput grows with the shard count "
        "(record reads/writes route to one shard each) but sub-linearly, "
        "because scatter/gather queries consume origin capacity on every "
        "shard; per-shard throughput falls accordingly."
    )
    return report


def aggregate_hit_rate(result: SimulationResult) -> float:
    """Fraction of reads+queries answered without touching an origin shard."""
    served_by_cache = 0
    total = 0
    for op_class in ("read", "query"):
        counts = result.level_counts[op_class]
        total += sum(counts.values())
        served_by_cache += sum(
            count for level, count in counts.items() if level != "origin"
        )
    return served_by_cache / total if total else 0.0
