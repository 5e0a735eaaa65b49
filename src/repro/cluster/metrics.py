"""Cluster-wide metrics: aggregating per-shard server statistics.

Every shard's :meth:`~repro.core.QuaestorServer.statistics` snapshot is a flat
mapping of numeric counters.  :func:`aggregate_statistics` sums them into one
cluster-wide view; :class:`ClusterMetrics` binds that aggregation to a live
:class:`~repro.cluster.deployment.QuaestorCluster` and adds routing-level
indicators (shard count, placement imbalance, router counters).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Sequence

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


class ClusterMetrics:
    """Aggregated view over a cluster's shards and its router."""

    def __init__(self, cluster: "QuaestorCluster") -> None:
        self._cluster = cluster

    def per_shard_statistics(self) -> Dict[int, Dict[str, float]]:
        """Each shard's server statistics, keyed by shard id.

        Counters of servers retired by failover are folded in (the cluster
        retains their snapshots), so a shard's numbers cover the whole run,
        not just the tenure of its current primary.
        """
        merged: Dict[int, Dict[str, float]] = {}
        retired = self._cluster._retired_statistics
        for shard in self._cluster.shards:
            snapshot = dict(shard.server.statistics())
            for name, value in retired.get(shard.shard_id, {}).items():
                snapshot[name] = snapshot.get(name, 0) + value
            merged[shard.shard_id] = snapshot
        return merged

    def statistics(self) -> Dict[str, float]:
        """One flat cluster-wide snapshot: summed counters + routing indicators.

        Facade-level counters share names with per-shard ones (a batched
        write increments the shards' ``writes`` but only the facade's
        ``write_batches``), so they are namespaced under ``cluster_`` instead
        of overwriting the shard sums.
        """
        snapshot = aggregate_statistics(list(self.per_shard_statistics().values()))
        for name, value in self._cluster.counters.as_dict().items():
            snapshot[f"cluster_{name}"] = value
        snapshot["shards"] = self._cluster.num_shards
        snapshot["routing_imbalance"] = self._cluster.router.imbalance()
        snapshot["scatter_abort_rate"] = self.scatter_abort_rate()
        snapshot["replication_factor"] = self._cluster.replication.replication_factor
        for name, value in self.replication_statistics().items():
            snapshot[name] = value
        # Breaker-state gauges exist only when a resilience layer is
        # attached, so snapshots of pre-resilience deployments are unchanged.
        runtime = self._cluster.resilience_runtime
        if runtime is not None:
            snapshot.update(runtime.breaker_state_counts())
        return snapshot

    def replication_statistics(self) -> Dict[str, float]:
        """Aggregated replica-group counters plus availability indicators.

        ``replica_read_share`` is the fraction of shard record reads served
        by replicas (the read scale-out replication buys);
        ``shard_error_rate`` is the fraction of scatter queries that came
        back degraded because at least one shard's primary was down.
        """
        merged = aggregate_statistics(
            [group.counters.as_dict() for group in self._cluster.groups]
        )
        snapshot: Dict[str, float] = {
            f"replication_{name}": value for name, value in merged.items()
        }
        primary = merged.get("primary_reads", 0)
        replica = merged.get("replica_reads", 0)
        snapshot["replica_read_share"] = (
            replica / (primary + replica) if (primary + replica) else 0.0
        )
        counters = self._cluster.counters
        scatters = counters.get("scatter_queries")
        snapshot["shard_error_rate"] = (
            counters.get("scatter_queries_degraded") / scatters if scatters else 0.0
        )
        return snapshot

    def scatter_abort_rate(self) -> float:
        """Fraction of scatter queries whose fleet-wide admission was aborted.

        An abort means at least one shard's probe succeeded while another
        shard rejected -- the wasted-registration scenario the two-phase
        protocol turns into a cheap probe.  A persistently high rate signals
        that per-shard capacity limits are mismatched across the fleet.
        """
        counters = self._cluster.counters
        scatters = counters.get("scatter_queries")
        if not scatters:
            return 0.0
        return counters.get("scatter_queries_aborted") / scatters

    def imbalance(self) -> float:
        """Max/mean routed-operation ratio across shards (1.0 = balanced)."""
        return self._cluster.router.imbalance()

    def __repr__(self) -> str:
        return (
            f"ClusterMetrics(shards={self._cluster.num_shards}, "
            f"imbalance={self.imbalance():.3f})"
        )
