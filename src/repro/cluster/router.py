"""The shard router: placing records and write batches onto cluster shards.

A :class:`ShardRouter` wraps a :class:`~repro.db.sharding.ConsistentHashRing`
and adds the pieces the cluster layer needs on top of raw placement:

* routing of record keys (``record:<collection>/<id>``) and whole workload
  operations to the shard that owns them,
* grouping of write batches by destination shard while remembering the
  original positions (so responses can be re-assembled in request order), and
* per-shard routing statistics kept in a
  :class:`~repro.db.sharding.ShardStatisticsTable`, which the cluster
  metrics use to report placement imbalance.

Queries do not route to a single shard -- their predicate may match documents
anywhere -- so the router deliberately has no ``shard_for_query``; the cluster
scatter/gathers them over every shard instead (see
:meth:`repro.cluster.deployment.QuaestorCluster.query`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.db.query import record_key
from repro.db.sharding import ConsistentHashRing, ShardStatistics, ShardStatisticsTable
from repro.workloads.operations import Operation, OperationType

#: Operation types that target exactly one record (and therefore one shard).
WRITE_TYPES = (OperationType.INSERT, OperationType.UPDATE, OperationType.DELETE)


class ShardRouter:
    """Consistent-hash placement of record keys onto cluster shards."""

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.ring = ConsistentHashRing(range(num_shards))
        self._statistics = ShardStatisticsTable(range(num_shards))
        #: Optional :class:`repro.obs.TraceRecorder`; when attached, routing
        #: decisions become ``router.route`` events on the open request span.
        self.tracer = None

    # -- membership ----------------------------------------------------------------

    def shard_ids(self) -> List[int]:
        return self.ring.shard_ids()

    # -- placement ------------------------------------------------------------------

    def shard_for_record(self, collection: str, document_id: str) -> int:
        """The shard owning ``collection/document_id``."""
        return self.ring.shard_for(record_key(collection, document_id))

    def shards_for_records(self, collection: str, document_ids: Sequence[str]) -> List[int]:
        """:meth:`shard_for_record` of every id, in order, hashing their shared
        key prefix once (:meth:`ConsistentHashRing.place_all`)."""
        return self.ring.place_all(record_key(collection, ""), document_ids)

    def shard_for_operation(self, operation: Operation) -> int:
        """The shard a single-record operation routes to (queries scatter).

        Inserts route by the payload's ``_id`` (the authoritative primary key
        the document is stored under), so batch routing always matches where
        a direct ``insert`` would have placed the document.
        """
        if operation.type == OperationType.QUERY:
            raise ValueError("queries scatter over all shards; they have no single owner")
        document_id = operation.document_id
        if operation.type == OperationType.INSERT and operation.payload is not None:
            document_id = str(operation.payload.get("_id", document_id))
        return self.shard_for_record(operation.collection, document_id)

    def group_writes(
        self, operations: Sequence[Operation]
    ) -> Dict[int, List[Tuple[int, Operation]]]:
        """Group a write batch by destination shard.

        Returns ``{shard_id: [(original_index, operation), ...]}`` with each
        shard's operations in their original relative order, so per-shard
        batches preserve the caller's write order and responses can be
        re-assembled positionally.
        """
        grouped: Dict[int, List[Tuple[int, Operation]]] = {}
        for index, operation in enumerate(operations):
            if operation.type not in WRITE_TYPES:
                raise ValueError(f"write batches only accept writes, got {operation.type}")
            shard_id = self.shard_for_operation(operation)
            grouped.setdefault(shard_id, []).append((index, operation))
        return grouped

    # -- statistics ------------------------------------------------------------------

    def record_read(self, collection: str, document_id: str) -> int:
        shard_id = self.ring.shard_for(record_key(collection, document_id))
        self._statistics.record_read(shard_id)
        if self.tracer is not None:
            self.tracer.event("router.route", "op", "read", "shard", shard_id)
        return shard_id

    def record_write(self, collection: str, document_id: str) -> int:
        shard_id = self.ring.shard_for(record_key(collection, document_id))
        self._statistics.record_write(shard_id)
        if self.tracer is not None:
            self.tracer.event("router.route", "op", "write", "shard", shard_id)
        return shard_id

    def record_writes_at(self, shard_id: int, count: int = 1) -> None:
        """Account ``count`` writes against an already-resolved shard."""
        self._statistics.record_write(shard_id, count=count)

    def imbalance(self) -> float:
        """Max/mean routed-operation ratio across shards (1.0 = balanced)."""
        return self._statistics.imbalance(self.shard_ids())

    def __repr__(self) -> str:
        return f"ShardRouter(num_shards={len(self.ring)}, imbalance={self.imbalance():.3f})"
