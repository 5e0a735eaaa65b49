"""Figure 12: InvaliDB matching throughput for varying cluster sizes.

The paper registers 500 active queries per matching node, feeds 1,000 insert
operations per second, and doubles both the query count and the node count per
experiment series; a cluster's sustainable throughput is the highest offered
matching load (updates/s x active queries per node) whose 99th-percentile
notification latency stays within a bound (15/20/25 ms).  Throughput scales
linearly with the number of matching nodes.

This harness does two things:

1. It *exercises* the real matching pipeline at a reduced, laptop-friendly
   load (hundreds of queries, thousands of after-images) to verify the
   partitioned matching produces the correct notifications and to measure the
   per-node matching-operation counts.
2. It reports the sustainable cluster throughput for each latency bound using
   the calibrated per-node capacity model, which is where the paper's absolute
   numbers (millions of ops/s per node) come from.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.clock import VirtualClock
from repro.db.changestream import ChangeEvent, OperationType
from repro.db.query import Query
from repro.invalidb.cluster import InvaliDBCluster
from repro.benchmarks.report import ExperimentReport

#: Latency bounds (seconds) reported in the paper's figure.
LATENCY_BOUNDS = (0.015, 0.020, 0.025)


def _synthetic_event(sequence: int, table: str, rng: random.Random, categories: int) -> ChangeEvent:
    document_id = f"{table}-doc-{rng.randrange(10_000):06d}"
    after = {
        "_id": document_id,
        "category": rng.randrange(categories),
        "views": rng.randrange(1_000),
        "tags": ["example"] if rng.random() < 0.5 else ["other"],
    }
    return ChangeEvent(
        sequence=sequence,
        operation=OperationType.UPDATE,
        collection=table,
        document_id=document_id,
        before=None,
        after=after,
        timestamp=float(sequence) / 1_000.0,
    )


def exercise_matching(
    matching_nodes: int,
    queries_per_node: int = 50,
    events: int = 2_000,
    categories: int = 100,
    seed: int = 7,
) -> dict:
    """Run the real matching grid at reduced load; returns measured counters."""
    rng = random.Random(seed)
    cluster = InvaliDBCluster(matching_nodes=matching_nodes)
    table = "posts"
    total_queries = queries_per_node * matching_nodes
    for index in range(total_queries):
        query = Query(table, {"category": index % categories})
        cluster.register_query(query, initial_result=[])

    notifications = 0
    for sequence in range(1, events + 1):
        notifications += len(cluster.process_event(_synthetic_event(sequence, table, rng, categories)))

    per_node_ops = [node.match_operations for node in cluster.nodes]
    return {
        "active_queries": cluster.active_queries,
        "events": events,
        "notifications": notifications,
        "total_match_operations": sum(per_node_ops),
        "max_node_match_operations": max(per_node_ops) if per_node_ops else 0,
    }


def run_figure12(
    node_counts: Optional[List[int]] = None,
    update_rate: float = 1_000.0,
    queries_per_node_micro: int = 50,
    micro_events: int = 2_000,
) -> ExperimentReport:
    """Regenerate the Figure 12 series (sustainable throughput per latency bound)."""
    nodes = node_counts if node_counts is not None else [1, 2, 4, 8, 16]
    report = ExperimentReport(
        experiment="Figure 12",
        description=(
            "InvaliDB matching throughput (ops/s) sustainable under 99th-percentile "
            "notification latency bounds, for growing numbers of matching nodes."
        ),
        columns=[
            "matching_nodes",
            "latency_bound_ms",
            "sustainable_throughput_ops",
            "throughput_per_node_ops",
            "micro_notifications",
            "micro_match_operations",
        ],
    )
    for matching_nodes in nodes:
        micro = exercise_matching(
            matching_nodes,
            queries_per_node=queries_per_node_micro,
            events=micro_events,
        )
        cluster = InvaliDBCluster(matching_nodes=matching_nodes)
        for bound in LATENCY_BOUNDS:
            throughput = cluster.sustainable_throughput(bound)
            report.add_row(
                matching_nodes=matching_nodes,
                latency_bound_ms=bound * 1000.0,
                sustainable_throughput_ops=throughput,
                throughput_per_node_ops=throughput / matching_nodes,
                micro_notifications=micro["notifications"],
                micro_match_operations=micro["total_match_operations"],
            )
    report.add_note(
        "Paper shape: throughput scales linearly with the number of matching nodes; "
        "per-node capacity is ~5M matching ops/s with 99th-percentile latency below "
        "20 ms up to ~3M ops/s per node."
    )
    report.add_note(
        f"update rate assumed for capacity accounting: {update_rate:.0f} inserts/s "
        "(the paper's constant workload)."
    )
    return report
