"""The cluster facade: a sharded deployment behind the single-server protocol.

:class:`ClusterClient` exposes exactly the surface a
:class:`~repro.client.QuaestorClient` (and the simulator) expects from a
:class:`~repro.core.QuaestorServer` -- ``handle_read``, ``handle_query``, the
write handlers, ``get_bloom_filter``, ``register_purge_target``
and ``statistics`` -- each one the corresponding
:class:`~repro.cluster.deployment.QuaestorCluster` method, bound to the
cluster.  An unmodified ``QuaestorClient`` therefore works against a sharded
fleet:

>>> cluster = QuaestorCluster(num_shards=4)
>>> client = QuaestorClient(ClusterClient(cluster))   # doctest: +SKIP

The one deliberate gap is :meth:`begin_transaction`: the reproduction's
optimistic transactions validate against a single server's data, and
cross-shard commit would need a distributed validation protocol the paper
does not describe, so the facade refuses rather than silently miscommitting.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.deployment import QuaestorCluster
from repro.errors import UnsupportedOperationError


class ClusterClient:
    """Server-protocol facade over a :class:`QuaestorCluster`."""

    #: Advertises that record reads accept ``consistency``/``min_timestamp``
    #: routing hints (the SDK only forwards them to servers that opt in, so
    #: stub servers in tests keep their two-argument ``handle_read``).
    supports_replica_reads = True

    def __init__(self, cluster: QuaestorCluster) -> None:
        self.cluster = cluster
        # The request handlers are the cluster's own methods, bound here: a
        # request enters the cluster directly, with no forwarding frame.
        self.handle_read = cluster.read
        self.handle_query = cluster.query
        self.handle_insert = cluster.insert
        self.handle_update = cluster.update
        self.handle_delete = cluster.delete
        self.get_bloom_filter = cluster.bloom_filter
        self.register_purge_target = cluster.register_purge_target

    # -- protocol --------------------------------------------------------------------
    # Every instance binds these names to its cluster in ``__init__``.  The
    # class-level aliases name the same functions, so ``ClusterClient.X``
    # resolves (for readers and profilers) to the code that serves the
    # request: ``handle_read`` is :meth:`QuaestorCluster.read` (Delta-atomic
    # and causal sessions may be served by a replica, STRONG reaches the
    # primary), ``handle_query`` the scatter/gather, the write handlers the
    # routed writes, ``get_bloom_filter`` the union of every shard's EBF.

    handle_read = QuaestorCluster.read
    handle_query = QuaestorCluster.query
    handle_insert = QuaestorCluster.insert
    handle_update = QuaestorCluster.update
    handle_delete = QuaestorCluster.delete
    get_bloom_filter = QuaestorCluster.bloom_filter
    register_purge_target = QuaestorCluster.register_purge_target

    # -- protocol: transactions ---------------------------------------------------------

    def begin_transaction(self):
        raise UnsupportedOperationError(
            "cross-shard transactions require distributed commit validation, "
            "which the sharded deployment does not implement"
        )

    # -- statistics ---------------------------------------------------------------------

    def statistics(self) -> Dict[str, float]:
        """Cluster-wide aggregated statistics (summed shard counters + routing)."""
        return self.cluster.statistics()

    def __repr__(self) -> str:
        return f"ClusterClient({self.cluster!r})"
