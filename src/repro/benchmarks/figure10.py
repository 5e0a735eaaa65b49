"""Figure 10: stale read/query rates versus the EBF refresh interval.

The staleness analysis uses the Monte Carlo simulation with a browser-like
configuration: many clients (10 and 100 in the paper) with six connections
each.  Client-side staleness is bounded by the EBF refresh interval; it rises
quickly between 1 s and 10 s and then flattens because (1) clients invalidate
their own cached records when they update them and (2) staleness is limited by
the cache hit rate itself (only cache hits can be stale).  Query staleness
exceeds record staleness because query hit rates are higher.
"""

from __future__ import annotations

from typing import List, Optional

from repro.benchmarks.report import ExperimentReport
from repro.benchmarks.harness import BenchmarkScale, SMALL_SCALE
from repro.simulation.simulator import CachingMode, SimulationConfig, Simulator
from repro.workloads.generator import WorkloadSpec


def run_figure10(
    scale: BenchmarkScale = SMALL_SCALE,
    refresh_intervals: Optional[List[float]] = None,
    client_counts: Optional[List[int]] = None,
    connections_per_client: int = 6,
    max_operations: Optional[int] = None,
) -> ExperimentReport:
    """Regenerate the Figure 10 data series (stale rates for reads and queries)."""
    intervals = refresh_intervals if refresh_intervals is not None else [1.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    clients = client_counts if client_counts is not None else [10, 100]
    report = ExperimentReport(
        experiment="Figure 10",
        description=(
            "Stale read and query rates for different numbers of clients and EBF "
            "refresh intervals (Monte Carlo simulation, 6 connections per client)."
        ),
        columns=["clients", "refresh_interval_s", "query_stale_rate", "read_stale_rate", "cdn_stale_rate"],
    )
    for num_clients in clients:
        for interval in intervals:
            config = SimulationConfig(
                mode=CachingMode.QUAESTOR,
                workload=WorkloadSpec.read_heavy(),
                dataset=scale.dataset_spec(),
                num_clients=num_clients,
                connections_per_client=connections_per_client,
                ebf_refresh_interval=interval,
                matching_nodes=scale.matching_nodes,
                duration=max(scale.duration, 4 * interval),
                max_operations=max_operations if max_operations is not None else scale.max_operations,
                seed=101,
            )
            result = Simulator(config).run()
            report.add_row(
                clients=num_clients,
                refresh_interval_s=interval,
                query_stale_rate=result.query_stale_rate,
                read_stale_rate=result.read_stale_rate,
                cdn_stale_rate=result.cdn_stale_rate,
            )
    report.add_note(
        "Paper shape: staleness rises fast between 1 s and 10 s refresh intervals and "
        "then flattens; query staleness exceeds record staleness because query cache "
        "hit rates are higher; CDN staleness stays below ~0.1-1 %."
    )
    return report
