"""Figure 8: the cloud-based evaluation of Quaestor (throughput, latency, hit rates).

Six sub-figures are regenerated:

* 8a -- throughput vs number of connections for Quaestor / EBF-only /
  CDN-only / uncached,
* 8b -- mean read latency vs connections,
* 8c -- mean query latency vs connections,
* 8d -- mean request latency for reads and queries vs query count,
* 8e -- client and CDN cache hit rates vs query count,
* 8f -- query latency histogram (client hits / CDN hits / misses).

All six share the read-heavy workload of Section 6.2 (99 % reads+queries,
1 % writes, Zipfian access).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.benchmarks.harness import ALL_MODES, BenchmarkScale, SMALL_SCALE, run_mode
from repro.benchmarks.report import ExperimentReport
from repro.simulation.simulator import CachingMode, SimulationResult
from repro.workloads.generator import WorkloadSpec


def run_figure8_throughput(
    scale: BenchmarkScale = SMALL_SCALE,
    connection_steps: Optional[List[int]] = None,
    modes=ALL_MODES,
) -> ExperimentReport:
    """Figure 8a: throughput (ops/s) for each system variant and connection count."""
    steps = connection_steps if connection_steps is not None else scale.connection_steps
    report = ExperimentReport(
        experiment="Figure 8a",
        description="Throughput (ops/s) under the read-heavy workload.",
        columns=["connections", "mode", "throughput", "operations"],
    )
    for connections in steps:
        for mode in modes:
            result = run_mode(scale, mode, connections)
            report.add_row(
                connections=connections,
                mode=mode.value,
                throughput=result.throughput,
                operations=result.operations,
            )
    report.add_note(
        "Paper shape: Quaestor reaches roughly an 11x speed-up over the uncached "
        "baseline at maximum load, ~5x over the EBF-only client cache and tens of "
        "percent over CDN-only."
    )
    return report


def run_figure8_read_latency(
    scale: BenchmarkScale = SMALL_SCALE,
    connection_steps: Optional[List[int]] = None,
    modes=ALL_MODES,
) -> ExperimentReport:
    """Figure 8b: mean read latency per system variant and connection count."""
    steps = connection_steps if connection_steps is not None else scale.connection_steps
    report = ExperimentReport(
        experiment="Figure 8b",
        description="Mean latency of read (record) operations in milliseconds.",
        columns=["connections", "mode", "mean_read_latency_ms", "p99_read_latency_ms"],
    )
    for connections in steps:
        for mode in modes:
            result = run_mode(scale, mode, connections)
            report.add_row(
                connections=connections,
                mode=mode.value,
                mean_read_latency_ms=result.read_latency.mean * 1000.0,
                p99_read_latency_ms=result.read_latency.percentile(0.99) * 1000.0,
            )
    report.add_note(
        "Paper shape: Quaestor reads settle around 15-20 ms, CDN-only slightly above, "
        "uncached at the wide-area round trip (~145 ms) and growing under load."
    )
    return report


def run_figure8_query_latency(
    scale: BenchmarkScale = SMALL_SCALE,
    connection_steps: Optional[List[int]] = None,
    modes=ALL_MODES,
) -> ExperimentReport:
    """Figure 8c: mean query latency per system variant and connection count."""
    steps = connection_steps if connection_steps is not None else scale.connection_steps
    report = ExperimentReport(
        experiment="Figure 8c",
        description="Mean latency of query operations in milliseconds.",
        columns=["connections", "mode", "mean_query_latency_ms", "p99_query_latency_ms"],
    )
    for connections in steps:
        for mode in modes:
            result = run_mode(scale, mode, connections)
            report.add_row(
                connections=connections,
                mode=mode.value,
                mean_query_latency_ms=result.query_latency.mean * 1000.0,
                p99_query_latency_ms=result.query_latency.percentile(0.99) * 1000.0,
            )
    report.add_note(
        "Paper shape: Quaestor query latency stays in the low single-digit milliseconds "
        "(most queries are client cache hits); the uncached baseline pays the full "
        "wide-area round trip."
    )
    return report


def run_figure8_query_count(
    scale: BenchmarkScale = SMALL_SCALE,
    query_count_steps: Optional[List[int]] = None,
    connections: Optional[int] = None,
) -> ExperimentReport:
    """Figure 8d: mean read/query latency as the number of distinct queries grows."""
    steps = query_count_steps if query_count_steps is not None else scale.query_count_steps
    connections = connections if connections is not None else scale.connection_steps[-3]
    report = ExperimentReport(
        experiment="Figure 8d",
        description="Mean request latency for reads and queries vs distinct query count.",
        columns=["query_count", "mean_query_latency_ms", "mean_read_latency_ms"],
    )
    for total_queries in steps:
        queries_per_table = max(1, total_queries // scale.num_tables)
        dataset = scale.dataset_spec(queries_per_table=queries_per_table)
        result = run_mode(scale, CachingMode.QUAESTOR, connections, dataset=dataset)
        report.add_row(
            query_count=queries_per_table * scale.num_tables,
            mean_query_latency_ms=result.query_latency.mean * 1000.0,
            mean_read_latency_ms=result.read_latency.mean * 1000.0,
        )
    report.add_note(
        "Paper shape: query latency increases with the query count (client hit rates "
        "drop), while read latency improves slightly because more records are cached "
        "as a side effect of cached query results."
    )
    return report


def run_figure8_hit_rates(
    scale: BenchmarkScale = SMALL_SCALE,
    query_count_steps: Optional[List[int]] = None,
    connections: Optional[int] = None,
) -> ExperimentReport:
    """Figure 8e: client and CDN cache hit rates vs distinct query count."""
    steps = query_count_steps if query_count_steps is not None else scale.query_count_steps
    connections = connections if connections is not None else scale.connection_steps[-3]
    report = ExperimentReport(
        experiment="Figure 8e",
        description="Cache hit rates at the client cache and the CDN vs query count.",
        columns=[
            "query_count",
            "client_query_hit_rate",
            "client_read_hit_rate",
            "cdn_query_hit_rate",
            "cdn_read_hit_rate",
        ],
    )
    for total_queries in steps:
        queries_per_table = max(1, total_queries // scale.num_tables)
        dataset = scale.dataset_spec(queries_per_table=queries_per_table)
        result = run_mode(scale, CachingMode.QUAESTOR, connections, dataset=dataset)
        report.add_row(
            query_count=queries_per_table * scale.num_tables,
            client_query_hit_rate=result.client_query_hit_rate,
            client_read_hit_rate=result.client_read_hit_rate,
            cdn_query_hit_rate=result.cdn_query_hit_rate,
            cdn_read_hit_rate=result.cdn_read_hit_rate,
        )
    report.add_note(
        "Paper shape: client query hit rates decrease with the query count while CDN "
        "hit rates remain comparatively stable (concurrent clients warm the CDN for "
        "each other)."
    )
    return report


def run_figure8_histogram(
    scale: BenchmarkScale = SMALL_SCALE,
    connections: Optional[int] = None,
    bucket_width_ms: float = 2.0,
) -> ExperimentReport:
    """Figure 8f: query latency histogram (client hits, CDN hits, misses)."""
    connections = connections if connections is not None else scale.connection_steps[-3]
    result = run_mode(scale, CachingMode.QUAESTOR, connections)
    report = ExperimentReport(
        experiment="Figure 8f",
        description=(
            "Query latency histogram; the three latency groups correspond to client "
            "cache hits (~0 ms), CDN hits (~4 ms) and cache misses (~150 ms)."
        ),
        columns=["bucket_ms", "count"],
    )
    buckets = result.query_latency.buckets(bucket_width_ms / 1000.0)
    for lower_bound, count in buckets.items():
        report.add_row(bucket_ms=lower_bound * 1000.0, count=count)
    counts = result.level_counts["query"]
    report.add_note(
        f"query level counts: client={counts.get('client', 0)}, cdn={counts.get('cdn', 0)}, "
        f"origin={counts.get('origin', 0)}"
    )
    return report


def figure8_summary(results: Dict[str, SimulationResult]) -> Dict[str, float]:
    """Convenience: speed-up factors between modes at one connection count."""
    quaestor = results[CachingMode.QUAESTOR.value].throughput
    return {
        "speedup_vs_uncached": quaestor / max(1e-9, results[CachingMode.UNCACHED.value].throughput),
        "speedup_vs_ebf_only": quaestor / max(1e-9, results[CachingMode.EBF_ONLY.value].throughput),
        "speedup_vs_cdn_only": quaestor / max(1e-9, results[CachingMode.CDN_ONLY.value].throughput),
    }
