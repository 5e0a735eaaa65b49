"""Shared benchmark infrastructure: scales and simulation helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.simulation.simulator import CachingMode, SimulationConfig, SimulationResult, Simulator
from repro.workloads.dataset import DatasetSpec
from repro.workloads.generator import WorkloadSpec


@dataclass(frozen=True)
class BenchmarkScale:
    """Size parameters shared by the benchmark harnesses.

    ``SMALL_SCALE`` keeps runs in the seconds-to-a-minute range on a laptop by
    shrinking the dataset, the connection counts and the number of simulated
    operations; ``PAPER_SCALE`` mirrors the paper's setup (10 tables x 10,000
    documents, 100 queries per table, up to 3,000 connections) and is intended
    for longer offline runs.  Relative comparisons (who wins, by what factor)
    are preserved at the small scale; absolute throughput is not.
    """

    name: str
    num_tables: int
    documents_per_table: int
    queries_per_table: int
    connection_steps: List[int]
    num_clients: int
    max_operations: int
    duration: float
    query_count_steps: List[int]
    document_count_steps: List[int]
    matching_nodes: int = 8

    def dataset_spec(
        self,
        documents_per_table: Optional[int] = None,
        queries_per_table: Optional[int] = None,
        num_tables: Optional[int] = None,
        seed: int = 7,
    ) -> DatasetSpec:
        """Dataset spec for this scale, with optional overrides."""
        return DatasetSpec(
            num_tables=num_tables if num_tables is not None else self.num_tables,
            documents_per_table=(
                documents_per_table
                if documents_per_table is not None
                else self.documents_per_table
            ),
            queries_per_table=(
                queries_per_table if queries_per_table is not None else self.queries_per_table
            ),
            seed=seed,
        )


SMALL_SCALE = BenchmarkScale(
    name="small",
    num_tables=4,
    documents_per_table=1_500,
    queries_per_table=60,
    connection_steps=[30, 60, 120, 180, 240, 300],
    num_clients=10,
    max_operations=6_000,
    duration=120.0,
    query_count_steps=[60, 120, 240, 480],
    document_count_steps=[1_000, 4_000, 12_000, 30_000],
)

PAPER_SCALE = BenchmarkScale(
    name="paper",
    num_tables=10,
    documents_per_table=10_000,
    queries_per_table=100,
    connection_steps=[300, 600, 1200, 1800, 2400, 3000],
    num_clients=10,
    max_operations=200_000,
    duration=300.0,
    query_count_steps=[1_000, 2_000, 4_000, 6_000, 8_000, 10_000],
    document_count_steps=[10_000, 100_000, 1_000_000, 10_000_000],
)


def simulation_config(scale: BenchmarkScale, connections: int, **overrides) -> SimulationConfig:
    """The one config every harness runs: the scale's defaults plus the cell's overrides.

    The defaults are the read-heavy workload on the scale's dataset, a
    Quaestor deployment refreshing its EBF every second, and seed 42.
    ``connections`` are spread evenly over the clients (``num_clients``, the
    scale's unless overridden); any other :class:`SimulationConfig` field
    named in ``overrides`` replaces its default, unless the override is
    ``None``.
    """
    num_clients = overrides.pop("num_clients", scale.num_clients)
    fields = dict(
        mode=CachingMode.QUAESTOR,
        workload=WorkloadSpec.read_heavy(),
        dataset=scale.dataset_spec(),
        num_clients=num_clients,
        connections_per_client=max(1, connections // num_clients),
        ebf_refresh_interval=1.0,
        matching_nodes=scale.matching_nodes,
        duration=scale.duration,
        max_operations=scale.max_operations,
        seed=42,
    )
    fields.update((name, value) for name, value in overrides.items() if value is not None)
    return SimulationConfig(**fields)


def run_mode(
    scale: BenchmarkScale, mode: CachingMode, connections: int, **overrides
) -> SimulationResult:
    """Run one simulated experiment for ``mode`` with ``connections`` connections."""
    return Simulator(simulation_config(scale, connections, mode=mode, **overrides)).run()


ALL_MODES = (
    CachingMode.QUAESTOR,
    CachingMode.EBF_ONLY,
    CachingMode.CDN_ONLY,
    CachingMode.UNCACHED,
)
