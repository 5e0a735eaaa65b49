"""The shard router: placing record requests onto cluster shards.

A :class:`ShardRouter` wraps a :class:`~repro.db.sharding.ConsistentHashRing`
and adds the pieces the cluster layer needs on top of raw placement:

* routing of record keys (``record:<collection>/<id>``) to the shard that
  owns them, one request at a time (:meth:`ShardRouter.route`), and
* one count of routed requests per shard, from which the cluster metrics
  report placement imbalance (:meth:`ShardRouter.imbalance`).

Queries do not route to a single shard -- their predicate may match documents
anywhere -- so the router deliberately has no ``shard_for_query``; the cluster
scatter/gathers them over every shard instead (see
:meth:`repro.cluster.deployment.QuaestorCluster.query`).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.db.query import record_key
from repro.db.sharding import ConsistentHashRing


class ShardRouter:
    """Consistent-hash placement of record keys onto cluster shards."""

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.ring = ConsistentHashRing(range(num_shards))
        #: Record requests routed to each shard, indexed by shard id.
        self._routed = [0] * num_shards
        #: Optional :class:`repro.obs.TraceRecorder`; when attached, routing
        #: decisions become ``router.route`` events on the open request span.
        self.tracer = None

    def shards_for_records(self, collection: str, document_ids: Sequence[str]) -> List[int]:
        """The owning shard of every ``collection/id``, in order, hashing their
        shared key prefix once (:meth:`ConsistentHashRing.place_all`)."""
        return self.ring.place_all(record_key(collection, ""), document_ids)

    def route(self, op: str, collection: str, document_id: str) -> int:
        """The shard owning ``collection/document_id``, counted as one routed
        ``op`` (``"read"`` or ``"write"``) against it."""
        shard_id = self.ring.shard_for(record_key(collection, document_id))
        self._routed[shard_id] += 1
        if self.tracer is not None:
            self.tracer.event("router.route", "op", op, "shard", shard_id)
        return shard_id

    def imbalance(self) -> float:
        """Max/mean routed-request ratio across shards (1.0 = balanced or idle)."""
        counts = self._routed
        total = sum(counts)
        if total == 0:
            return 1.0
        return max(counts) / (total / len(counts))

    def __repr__(self) -> str:
        return f"ShardRouter(num_shards={len(self.ring)}, imbalance={self.imbalance():.3f})"
