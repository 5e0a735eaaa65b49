"""Sharded multi-server deployment of Quaestor (scale-out layer).

The paper positions Quaestor as Database-as-a-Service middleware for heavy
multi-tenant traffic; this package deploys the reproduction that way.  A
:class:`QuaestorCluster` runs N complete Quaestor stacks (each with its own
database shard, Expiring Bloom Filter, TTL estimator and InvaliDB cluster)
behind a consistent-hash :class:`ShardRouter`:

* record reads and writes route, one request at a time, to the shard
  owning the record key,
* queries scatter over every shard; sub-results are gathered, merged with
  single-node sort/window semantics and re-cached under the original cache
  key with *min-TTL wins* Cache-Control merging,
* clients receive the bitwise union of all shard EBFs, so an invalidation on
  any shard flags the merged cached result.

:class:`ClusterClient` wraps the cluster in the single-server protocol, so an
unmodified :class:`~repro.client.QuaestorClient` (and the simulator) can talk
to a sharded fleet.  :func:`cluster_statistics` aggregates per-shard
statistics into one cluster-wide snapshot.
"""

from __future__ import annotations

from repro.cluster.client import ClusterClient
from repro.cluster.deployment import QuaestorCluster
from repro.cluster.metrics import aggregate_statistics, cluster_statistics
from repro.cluster.router import ShardRouter

__all__ = [
    "ClusterClient",
    "QuaestorCluster",
    "aggregate_statistics",
    "cluster_statistics",
    "ShardRouter",
]
