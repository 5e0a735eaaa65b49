"""A replica node: a full database copy fed by asynchronous log shipping.

A :class:`ReplicaNode` owns a real :class:`~repro.db.Database` (not a
flattened key/value mirror), for one reason: on failover the node is promoted
to primary, and a promoted node must be able to carry a complete
:class:`~repro.core.QuaestorServer` -- query execution, secondary indexes,
version sequences, change stream for future writes -- without a rebuild.
Applying the shipped log through the collection's write seam keeps every
document version in lock-step with the primary (the same ordered mutation
sequence produces the same version numbers, and a shipped version that is not
the node's own next one is rejected), which is what makes ETags and the
client-side version-keyed caches agree across primary and replica reads.
Documents are never copied on the way: a stored version is immutable, so the
node adopts the primary's snapshot object itself.
"""

from __future__ import annotations

from typing import Optional

from repro.clock import Clock
from repro.db.changestream import OperationType
from repro.db.database import Database
from repro.errors import CacheCoherenceError, DocumentNotFoundError
from repro.replication.log_shipping import LogRecord, ReplicationLink


class ReplicaNode:
    """One member of a replica group (primary or secondary).

    The node tracks an *apply watermark*: the timestamp (and change-stream
    sequence) of the last log record it applied.  The watermark is what
    causal reads are gated on -- a replica may serve a causal session only
    when its watermark has caught up to the session's frontier -- and what
    failover uses to pick the freshest promotion candidate.
    """

    def __init__(self, node_id: str, clock: Clock, database: Optional[Database] = None) -> None:
        self.node_id = node_id
        self._clock = clock
        self.database = database if database is not None else Database(clock=clock)
        self.link = ReplicationLink()
        self.alive = True
        #: Promotion epoch this node's log position belongs to.  Sequence
        #: numbers are only comparable within one epoch (every promotion
        #: starts a new change stream); the group stamps this on every
        #: seed/realign, and failover prefers current-epoch candidates.
        self.epoch = 0
        #: Whether an *empty* link proves this node has received everything
        #: acknowledged.  True only while the node has been continuously
        #: alive since its last seed: a crashed node receives no ship
        #: fan-out, so after a crash an empty link proves nothing until the
        #: next snapshot resync restores the invariant.
        self.link_sound = True
        #: Change-stream sequence of the last applied record (0 = nothing).
        self.applied_sequence = 0
        #: Primary-side commit timestamp of the last applied record.
        self.applied_timestamp = 0.0
        self.records_applied = 0

    # -- bootstrap / resync -----------------------------------------------------------

    def seed_from(self, source: Database, upto_sequence: int = 0, upto_timestamp: float = 0.0) -> None:
        """Snapshot resync: rebuild this node's database from ``source``.

        Every collection is recreated by
        :meth:`~repro.db.collection.Collection.seed_from`: the same secondary
        indexes and version floors, and each live document's stored snapshot
        adopted by reference at exactly its source version.  A floor *above*
        a live version (failover protection against re-issuing a deposed
        primary's numbers) and the tombstones of deleted ids come along, so
        the protection survives resyncs.  Used at group construction, when a
        crashed node rejoins, and to realign surviving replicas after a
        promotion (their logs may have diverged from the new primary's).
        """
        self.database = Database(clock=self._clock)
        # A seeded node can be promoted, and a later failover replays its
        # stream (ReplicaGroup.promote).
        self.database.change_stream.retain_history()
        self.link = ReplicationLink()
        for name in source.collection_names():
            self.database.create_collection(name).seed_from(source.collection(name))
        self.applied_sequence = upto_sequence
        self.applied_timestamp = upto_timestamp
        self.link_sound = True

    # -- log delivery -----------------------------------------------------------------

    def deliver_until(self, now: float) -> int:
        """Apply every shipped record whose delivery time has passed."""
        applied = 0
        for record in self.link.take_ready(now):
            self._apply(record)
            applied += 1
        return applied

    def _apply(self, record: LogRecord) -> None:
        event = record.event
        collection = self.database.create_collection(event.collection)
        if event.operation is OperationType.DELETE:
            try:
                collection.delete(event.document_id)
            except DocumentNotFoundError:
                raise CacheCoherenceError(
                    f"replica {self.node_id} applied a delete for missing "
                    f"{event.collection}/{event.document_id} (log gap)"
                )
        else:
            # The primary's after-image is adopted by reference (one copy of
            # each version per group, not one per node) at the shipped
            # version, which must be the one this node would have assigned
            # itself: the same ordered mutation sequence yields the same
            # numbers, so a mismatch means the log skipped or repeated a write.
            expected = collection.next_version(event.document_id)
            if event.version and expected != event.version:
                raise CacheCoherenceError(
                    f"replica {self.node_id} diverged on {event.collection}/"
                    f"{event.document_id}: next version {expected}, "
                    f"primary shipped {event.version}"
                )
            collection.install_snapshot(event.document_id, event.after, event.version or expected)
        self.applied_sequence = event.sequence
        self.applied_timestamp = event.timestamp
        self.records_applied += 1

    # -- introspection ----------------------------------------------------------------

    @property
    def lag_records(self) -> int:
        """Shipped-but-unapplied records (current replication backlog)."""
        return len(self.link)

    def staleness_at(self, now: float) -> float:
        """Age of the oldest unapplied write (0.0 when fully caught up).

        The observable bound on how far behind this replica's served state
        can be; Delta-atomic read routing excludes replicas whose staleness
        exceeds the configured budget.
        """
        oldest = self.link.oldest_pending_timestamp()
        return max(0.0, now - oldest) if oldest is not None else 0.0

    def caught_up_to(self, timestamp: Optional[float]) -> bool:
        """Whether this node has applied everything up to ``timestamp``.

        A ``None`` frontier (session never observed a primary state) is
        trivially satisfied.  A node is caught up when its watermark has
        passed the frontier, or when its backlog is empty *and* the link is
        sound -- shipping is synchronous with writes, so an empty link on a
        continuously-alive node means nothing acknowledged is outstanding.
        A node that rejoined after a crash without a resync has an empty
        link that proves nothing (``link_sound`` is False), so only its
        watermark counts.
        """
        if timestamp is None:
            return True
        if self.applied_timestamp >= timestamp:
            return True
        return self.link_sound and len(self.link) == 0

    def __repr__(self) -> str:
        return (
            f"ReplicaNode(id={self.node_id!r}, alive={self.alive}, "
            f"applied_seq={self.applied_sequence}, backlog={self.lag_records})"
        )
