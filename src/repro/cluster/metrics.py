"""Cluster-wide metrics: views over a cluster's counters.

Every shard's :meth:`~repro.core.QuaestorServer.statistics` snapshot is a flat
mapping of numeric counters.  :func:`aggregate_statistics` sums them into one
cluster-wide view; :func:`cluster_statistics` adds the routing-level
indicators (shard count, placement imbalance, facade counters) of a live
:class:`~repro.cluster.deployment.QuaestorCluster`, and :func:`metric_rows`
reads the same counters as labelled rows for ``repro.obs.MetricsRegistry``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (deployment imports us)
    from repro.cluster.deployment import QuaestorCluster


def aggregate_statistics(snapshots: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Sum numeric per-shard statistics into one cluster-wide snapshot.

    Non-numeric values are skipped; missing keys count as zero, so shards
    whose counters diverge (e.g. only one shard ever rejected a query) still
    aggregate cleanly.
    """
    merged: Dict[str, float] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            merged[key] = merged.get(key, 0) + value
    return merged


def per_shard_statistics(cluster: "QuaestorCluster") -> Dict[int, Dict[str, float]]:
    """Each shard's server statistics, keyed by shard id.

    Counters of servers retired by failover and recovery are folded in (each
    replica group keeps their sums), so a shard's numbers cover the whole
    run, not just the tenure of its current primary.
    """
    merged: Dict[int, Dict[str, float]] = {}
    for group in cluster.groups:
        snapshot = dict(group.server.statistics())
        for name, value in group.retired_statistics.items():
            snapshot[name] = snapshot.get(name, 0) + value
        merged[group.shard_id] = snapshot
    return merged


def cluster_statistics(cluster: "QuaestorCluster") -> Dict[str, float]:
    """One flat cluster-wide snapshot: summed counters + routing indicators.

    Facade-level counters share names with per-shard ones (a routed write
    increments both the facade's and its shard's ``writes``), so they are
    namespaced under ``cluster_`` instead of overwriting the shard sums.

    ``scatter_abort_rate`` is the fraction of scatter queries whose
    fleet-wide admission was aborted: a shard's probe succeeded while
    another shard rejected.  ``replica_read_share`` is the fraction of shard
    record reads served by replicas (the read scale-out replication buys);
    ``shard_error_rate`` is the fraction of scatter queries that came back
    degraded because at least one shard could not answer.
    """
    snapshot = aggregate_statistics(list(per_shard_statistics(cluster).values()))
    counters = cluster.counters
    for name, value in counters.as_dict().items():
        snapshot[f"cluster_{name}"] = value
    scatters = counters.get("scatter_queries")
    snapshot["shards"] = cluster.num_shards
    snapshot["routing_imbalance"] = cluster.router.imbalance()
    snapshot["scatter_abort_rate"] = (
        counters.get("scatter_queries_aborted") / scatters if scatters else 0.0
    )
    snapshot["replication_factor"] = cluster.replication.replication_factor
    merged = aggregate_statistics([group.counters.as_dict() for group in cluster.groups])
    for name, value in merged.items():
        snapshot[f"replication_{name}"] = value
    primary = merged.get("primary_reads", 0)
    replica = merged.get("replica_reads", 0)
    snapshot["replica_read_share"] = replica / (primary + replica) if (primary + replica) else 0.0
    snapshot["shard_error_rate"] = (
        counters.get("scatter_queries_degraded") / scatters if scatters else 0.0
    )
    # Breaker-state levels exist only when a resilience layer is attached,
    # so snapshots of pre-resilience deployments are unchanged.
    runtime = cluster.resilience_runtime
    if runtime is not None:
        snapshot.update(runtime.breaker_state_counts())
    return snapshot


def metric_rows(cluster: "QuaestorCluster") -> List[tuple]:
    """The fleet's labelled rows: requests by op, shard errors, resilience attempts."""
    counts = cluster.counters.counts
    rows = [
        ("cluster_requests_total", (("op", "read"),), counts.get("reads", 0)),
        ("cluster_requests_total", (("op", "query"),), counts.get("scatter_queries", 0)),
        ("cluster_requests_total", (("op", "write"),), counts.get("writes", 0)),
        ("cluster_shard_errors_total", (), counts.get("scatter_shard_errors", 0)),
    ]
    runtime = cluster.resilience_runtime
    if runtime is not None:
        rows.extend(
            ("resilience_attempts_total", (("kind", kind),), value)
            for kind, value in runtime.attempts.counts.items()
        )
    return rows
