"""Figure 9: client query cache hit rates under varying update rates.

The paper sweeps the update rate from 0 to 0.20 (with equal read and query
shares making up the rest) and reports the client-side query cache hit rate
for three EBF refresh intervals (1 s, 10 s, 100 s) on a 100k-object / 1k-query
dataset, plus one series with 10k queries.  The key observations are that hit
rates decay smoothly with the update rate and that the refresh interval has
only a minor effect on the decay.
"""

from __future__ import annotations

from typing import List, Optional

from repro.benchmarks.harness import BenchmarkScale, SMALL_SCALE, run_mode
from repro.benchmarks.report import ExperimentReport
from repro.simulation.simulator import CachingMode
from repro.workloads.generator import WorkloadSpec

#: The (refresh interval, query-count label) series of the paper's figure.
PAPER_SERIES = (
    (1.0, "base"),
    (10.0, "base"),
    (100.0, "base"),
    (1.0, "many-queries"),
)


def run_figure9(
    scale: BenchmarkScale = SMALL_SCALE,
    update_rates: Optional[List[float]] = None,
    connections: Optional[int] = None,
) -> ExperimentReport:
    """Regenerate the Figure 9 data series."""
    rates = update_rates if update_rates is not None else [0.0, 0.05, 0.10, 0.15, 0.20]
    connections = connections if connections is not None else scale.connection_steps[2]
    report = ExperimentReport(
        experiment="Figure 9",
        description=(
            "Client cache hit rate for queries vs update rate, for different EBF "
            "refresh intervals and query counts."
        ),
        columns=["series", "refresh_interval_s", "update_rate", "query_cache_hit_rate"],
    )

    for refresh_interval, series in PAPER_SERIES:
        if series == "many-queries":
            dataset = scale.dataset_spec(
                queries_per_table=scale.queries_per_table * 4
            )
            label = f"{scale.queries_per_table * 4 * scale.num_tables} queries/{refresh_interval:.0f}s"
        else:
            dataset = scale.dataset_spec()
            label = f"{scale.queries_per_table * scale.num_tables} queries/{refresh_interval:.0f}s"
        for update_rate in rates:
            workload = WorkloadSpec.with_update_rate(update_rate)
            result = run_mode(
                scale,
                CachingMode.QUAESTOR,
                connections,
                workload=workload,
                dataset=dataset,
                ebf_refresh_interval=refresh_interval,
            )
            report.add_row(
                series=label,
                refresh_interval_s=refresh_interval,
                update_rate=update_rate,
                query_cache_hit_rate=result.client_query_hit_rate,
            )
    report.add_note(
        "Paper shape: hit rates decay with the update rate; the EBF refresh interval "
        "has only little impact on the decay because higher write rates also shorten "
        "the estimated TTLs."
    )
    return report
