"""Table 1: query and read latencies for increasing document counts.

The paper grows the database from 10 thousand to 10 million documents by
adding collections (each with 10,000 documents and 100 distinct queries),
switches the request distribution to a Zipf constant of 0.99 and reports mean
query and read latencies.  Two effects shape the result: very small databases
concentrate reads *and writes* on the same few hot objects (limiting hit
rates), while very large databases take much longer to warm the caches.

Reproducing 10 million in-memory Python documents is not feasible on a laptop,
so the default scale sweeps proportionally smaller document counts; the same
U-shaped latency trend (best at mid-sized databases) is the acceptance
criterion.
"""

from __future__ import annotations

from typing import List, Optional

from repro.benchmarks.harness import BenchmarkScale, SMALL_SCALE, run_mode
from repro.benchmarks.report import ExperimentReport
from repro.simulation.simulator import CachingMode
from repro.workloads.generator import WorkloadSpec


def run_table1(
    scale: BenchmarkScale = SMALL_SCALE,
    document_counts: Optional[List[int]] = None,
    connections: Optional[int] = None,
    zipf_constant: float = 0.99,
) -> ExperimentReport:
    """Regenerate the Table 1 rows (documents, queries, query/read latency)."""
    counts = document_counts if document_counts is not None else scale.document_count_steps
    connections = connections if connections is not None else scale.connection_steps[2]
    report = ExperimentReport(
        experiment="Table 1",
        description=(
            "Mean query and read latency for increasing database sizes "
            f"(Zipf constant {zipf_constant})."
        ),
        columns=["documents", "queries", "query_latency_ms", "read_latency_ms"],
    )
    workload = WorkloadSpec.read_heavy(zipf_constant=zipf_constant)
    for total_documents in counts:
        num_tables = max(1, total_documents // scale.documents_per_table)
        documents_per_table = total_documents // num_tables
        dataset = scale.dataset_spec(num_tables=num_tables, documents_per_table=documents_per_table)
        result = run_mode(
            scale, CachingMode.QUAESTOR, connections, workload=workload, dataset=dataset
        )
        report.add_row(
            documents=num_tables * documents_per_table,
            queries=num_tables * scale.queries_per_table,
            query_latency_ms=result.query_latency.mean * 1000.0,
            read_latency_ms=result.read_latency.mean * 1000.0,
        )
    report.add_note(
        "Paper shape: latencies are highest for very small databases (write contention "
        "on few hot objects) and for very large databases (cold caches), with a sweet "
        "spot at mid-sized databases."
    )
    return report
