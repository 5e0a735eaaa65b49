"""Per-shard replica groups: replicated serving, failover, fault surface.

A :class:`ReplicaGroup` turns one shard of a
:class:`~repro.cluster.QuaestorCluster` into ``replication_factor`` copies: a
primary carrying the full :class:`~repro.core.QuaestorServer` stack and
``replication_factor - 1`` :class:`~repro.replication.replica.ReplicaNode`
databases fed by asynchronous log shipping
(:mod:`repro.replication.log_shipping`).

Read routing honours the paper's consistency levels
(:mod:`repro.core.consistency`):

* **STRONG** always routes to the primary (a replica cannot linearize).
* **DELTA_ATOMIC** round-robins across the primary and every live replica;
  replica lag is bounded staleness, which Delta-atomicity already budgets
  for (the staleness auditor measures it like any other stale read).
* **CAUSAL** may use a replica only when the replica's apply watermark has
  caught up to the session's causal frontier; otherwise the read falls back
  to the primary.

Two middleware structures are deliberately modelled as *surviving* a primary
crash: the Expiring Bloom Filter and the TTL estimator.  The paper keeps the
coherence bookkeeping (active list and friends) in a shared Redis tier, not
on the Quaestor process itself -- losing the EBF on failover would make
caches serve invalidated entries as fresh, a fail-incorrect outcome.  What
*is* lost on a crash is the primary's unshipped log suffix (asynchronous
replication's loss window) and its InvaliDB registrations; the group flags
the lost keys stale in the surviving filter (fail-stale) and the cluster
re-registers queries on the promoted server.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.clock import Clock
from repro.core.consistency import ConsistencyLevel
from repro.core.read_path import render_record_read
from repro.core.server import GAUGE_STATISTICS
from repro.db.changestream import ChangeEvent
from repro.db.database import Database
from repro.db.query import record_key
from repro.errors import (
    CollectionNotFoundError,
    DocumentNotFoundError,
    ShardUnavailableError,
)
from repro.metrics.counters import Counter
from repro.replication.config import MAX_REPLICA_STALENESS, ReplicationConfig
from repro.replication.log_shipping import LogRecord
from repro.replication.replica import ReplicaNode, seeded_database
from repro.rest.messages import Response, StatusCode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports nothing of us)
    from repro.bloom.expiring import ExpiringBloomFilter
    from repro.core.server import QuaestorServer
    from repro.ttl.base import TTLEstimator

#: Trace attribute text of each level (``.value`` is a property call).
_LEVEL_NAMES = {level: level.value for level in ConsistencyLevel}

#: Builds a fresh primary server on a promoted replica's database.  The
#: Expiring Bloom Filter and TTL estimator are handed through so the
#: coherence state survives the failover (see the module docstring).
ServerFactory = Callable[[Database, "ExpiringBloomFilter", "TTLEstimator"], "QuaestorServer"]


class ReplicaGroup:
    """A primary Quaestor server plus asynchronously shipped replicas."""

    def __init__(
        self,
        shard_id: int,
        database: Database,
        server: "QuaestorServer",
        server_factory: ServerFactory,
        clock: Clock,
        config: Optional[ReplicationConfig] = None,
    ) -> None:
        self.shard_id = shard_id
        self.clock = clock
        self.config = config if config is not None else ReplicationConfig()
        self.server_factory = server_factory
        self.counters = Counter()

        # Coherence-tier state that survives primary failover.
        self.ebf = server.ebf
        self.ttl_estimator = server.ttl_estimator

        if self.config.replication_factor > 1:
            # Failover replays the deposed primary's own stream (promote());
            # without a replica nothing is ever promoted or replayed.
            database.change_stream.retain_history()
        primary = ReplicaNode(self._node_id(0), clock, database)
        # A replica is built on its snapshot of the primary's database.
        self.nodes: List[ReplicaNode] = [primary] + [
            ReplicaNode(self._node_id(index), clock, seeded_database(database, clock))
            for index in range(1, self.config.replication_factor)
        ]
        for node in self.nodes:
            node.applied_sequence = database.change_stream.last_sequence
            node.applied_timestamp = clock.now()

        #: The current primary's Quaestor server (re-pointed on failover and
        #: recovery).
        self.server: "QuaestorServer" = server
        #: Counters of the servers failover and recovery retired, summed, so
        #: shard statistics cover the whole run (gauges excluded: only the
        #: live server's are meaningful, and summing them double-counts).
        self.retired_statistics: Dict[str, float] = {}
        #: The serving primary's node (re-pointed on failover and recovery).
        self.primary_node: ReplicaNode = primary
        self._read_rr = 0
        self.last_served_node_id = primary.node_id
        #: Promotion epoch: bumped on every primary change; candidate
        #: freshness is compared as (epoch, applied_sequence) because
        #: sequence numbers restart with each primary's change stream.
        self._epoch = 0
        #: Every collection this shard has ever materialised; a promoted
        #: database is topped up from this set so scatter queries never hit
        #: a missing collection on a node that was down when it was created.
        self._known_collections: Set[str] = set(database.collection_names())
        #: Cached serving-node id list (simulator capacity accounting);
        #: invalidated on any membership change.
        self._serving_ids: Optional[List[str]] = None
        #: Promotion history: one record per completed failover.
        self.promotions: List[Dict[str, object]] = []
        #: Optional per-replica circuit-breaker gate installed by the
        #: cluster's resilience layer: ``gate(node_id) -> bool`` (may this
        #: replica take traffic?).  ``None`` -- the default, and the only
        #: state a deployment without resilience ever sees -- changes
        #: nothing about candidate selection.
        self.breaker_gate: Optional[Callable[[str], bool]] = None
        #: Optional :class:`repro.obs.TraceRecorder` (bound once by the
        #: cluster); replica selections become ``replica.select`` events.
        self.tracer = None
        self._unsubscribe = database.subscribe(self._ship)

    def _node_id(self, index: int) -> str:
        return f"s{self.shard_id}:n{index}"

    # -- membership / introspection ------------------------------------------------------

    @property
    def primary_node_id(self) -> str:
        return self.primary_node.node_id

    @property
    def primary_alive(self) -> bool:
        return self.primary_node.alive

    @property
    def database(self) -> Database:
        return self.primary_node.database

    def node(self, node_id: str) -> ReplicaNode:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise KeyError(f"no node {node_id!r} in replica group of shard {self.shard_id}")

    def replica_nodes(self) -> List[ReplicaNode]:
        return [node for node in self.nodes if node is not self.primary_node]

    def alive_replicas(self) -> List[ReplicaNode]:
        return [node for node in self.replica_nodes() if node.alive]

    def serving_node_ids(self) -> List[str]:
        """Nodes currently able to serve Delta-atomic record reads.

        Used by the simulator's capacity accounting to spread anonymous
        member-record fetches over the nodes the read rotation actually
        uses.  Falls back to the primary id when nothing is alive (the
        request errors anyway; the token is never charged).  Cached --
        membership changes are rare, this is queried per simulated fetch.
        """
        if self._serving_ids is None:
            ids = [self.primary_node_id] if self.primary_alive else []
            ids.extend(node.node_id for node in self.alive_replicas())
            self._serving_ids = ids if ids else [self.primary_node_id]
        return self._serving_ids

    def status(self) -> Dict[str, object]:
        """Point-in-time group status (examples, metrics, debugging)."""
        return {
            "shard_id": self.shard_id,
            "primary": self.primary_node_id,
            "primary_alive": self.primary_alive,
            "replication_factor": self.config.replication_factor,
            "nodes": [
                {
                    "node_id": node.node_id,
                    "alive": node.alive,
                    "role": "primary" if node is self.primary_node else "replica",
                    "applied_sequence": node.applied_sequence,
                    "backlog": node.lag_records,
                }
                for node in self.nodes
            ],
            "promotions": len(self.promotions),
        }

    # -- log shipping --------------------------------------------------------------------

    def _ship(self, event: ChangeEvent) -> None:
        """Fan one acknowledged primary write out to every live replica."""
        primary = self.primary_node
        replicas = [node for node in self.nodes if node is not primary and node.alive]
        if not replicas:
            return
        for node in replicas:
            # One lag draw per (event, replica), in node order: deterministic
            # under a fixed seed, and independent streams per topology model.
            lag = self.config.lag.sample()
            node.link.ship(LogRecord(event, event.timestamp + lag))

    # -- read routing --------------------------------------------------------------------

    def read(
        self,
        collection: str,
        document_id: str,
        consistency: Optional[ConsistencyLevel] = None,
        min_timestamp: Optional[float] = None,
    ) -> Response:
        """Serve a record read at the requested consistency level.

        ``min_timestamp`` is the session's causal frontier (the primary-side
        timestamp of the newest state the session has observed or written);
        it gates which replicas a CAUSAL read may use.  Raises
        :class:`~repro.errors.ShardUnavailableError` when no node can serve
        the request at the requested level.
        """
        primary = self.primary_node
        if len(self.nodes) == 1:
            # RF=1 fast path: every level routes to the sole primary.  No
            # candidate lists, no level coercion -- the record-read hot path
            # of an unreplicated cluster stays as lean as before this layer.
            if not primary.alive:
                self.counters.increment("unavailable_reads")
                raise ShardUnavailableError(
                    f"shard {self.shard_id}: primary down and unreplicated"
                )
            return self._primary_read(collection, document_id)
        now = self.clock.now()
        level = (
            consistency
            if consistency.__class__ is ConsistencyLevel
            else self._coerce_level(consistency)
        )

        if level is ConsistencyLevel.STRONG:
            # STRONG: only the primary can linearize.
            if not primary.alive:
                self.counters.increment("unavailable_reads")
                raise ShardUnavailableError(
                    f"shard {self.shard_id}: primary down, strong read cannot be served"
                )
            return self._primary_read(collection, document_id)

        # Candidates are the live primary first, then the eligible replicas
        # in node order; the read rotation picks among them.
        candidates: List[ReplicaNode] = [primary] if primary.alive else []
        stale_candidates: Optional[List[ReplicaNode]] = None
        breaker_gate = self.breaker_gate
        for node in self.nodes:
            if node is primary or not node.alive:
                continue
            node.deliver_until(now)
            if breaker_gate is not None and not breaker_gate(node.node_id):
                # The resilience layer's per-replica breaker is open for this
                # node (e.g. it has been dropping acks): route around it.
                self.counters.increment("breaker_skipped_replicas")
                continue
            if level is ConsistencyLevel.CAUSAL and not node.caught_up_to(min_timestamp):
                self.counters.increment("causal_replica_skips")
                continue
            if node.staleness_at(now) > MAX_REPLICA_STALENESS:
                # Beyond the Delta budget (deeply backlogged):
                # not eligible while fresher nodes exist, but kept as the
                # fail-stale last resort when the primary is down.
                self.counters.increment("stale_replica_skips")
                if stale_candidates is None:
                    stale_candidates = []
                stale_candidates.append(node)
                continue
            candidates.append(node)
        if not candidates:
            # Fail-stale availability beats refusing entirely: during an
            # outage an over-bound replica may still answer (the staleness
            # auditor measures exactly this window).
            if not stale_candidates:
                self.counters.increment("unavailable_reads")
                raise ShardUnavailableError(
                    f"shard {self.shard_id}: no node can serve a {level.value} read"
                )
            candidates = stale_candidates

        node = candidates[self._read_rr % len(candidates)]
        self._read_rr += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.event(
                "replica.select",
                "node", node.node_id, "candidates", len(candidates), "level", _LEVEL_NAMES[level],
            )
        if node is primary:
            return self._primary_read(collection, document_id)
        return self._replica_read(node, collection, document_id, now)

    @staticmethod
    def _coerce_level(consistency: Optional[ConsistencyLevel]) -> ConsistencyLevel:
        if consistency is None:
            return ConsistencyLevel.DELTA_ATOMIC
        if isinstance(consistency, ConsistencyLevel):
            return consistency
        return ConsistencyLevel(consistency)

    def _primary_read(self, collection: str, document_id: str) -> Response:
        self.counters.counts["primary_reads"] += 1
        self.last_served_node_id = self.primary_node.node_id
        return self.server.handle_read(collection, document_id)

    def _replica_read(
        self, node: ReplicaNode, collection: str, document_id: str, now: float
    ) -> Response:
        """Serve a record from a replica's (possibly lagging) database.

        Mirrors the primary's record-read pipeline -- same body shape, ETag,
        TTL estimate and EBF read report -- except that the staleness auditor
        is *not* fed: replica state is not authoritative, and the audit's job
        is precisely to measure how stale these reads get.
        """
        self.last_served_node_id = node.node_id
        try:
            document, version = node.database.collection(collection).get_versioned(document_id)
        except (CollectionNotFoundError, DocumentNotFoundError):
            # The replica has not applied the insert yet.  A lagging *value*
            # is bounded staleness, but a 404 for an acknowledged document
            # would break read-your-writes (the session's own insert must be
            # visible), so the miss falls back to the primary whenever it is
            # alive; only during an outage does it degrade to a bounded-stale
            # 404.
            self.counters.increment("replica_read_misses")
            if self.primary_alive:
                return self._primary_read(collection, document_id)
            return Response.uncacheable(None, status=StatusCode.NOT_FOUND)
        self.counters.counts["replica_reads"] += 1
        return render_record_read(
            collection,
            document_id,
            document,
            version,
            now,
            config=self.server.config,
            ttl_estimator=self.ttl_estimator,
            ebf=self.ebf,
        )

    # -- write-path helpers --------------------------------------------------------------

    def ensure_collection(self, name: str) -> None:
        """Materialise ``name`` on the primary and every live replica.

        The cluster materialises collections fleet-wide on insert; replicas
        must mirror that so a promoted replica can serve scatter queries for
        collections that were created but never written on this shard.  The
        name is also remembered so a node that was *down* at creation time
        is topped up if it ever resumes service as primary.
        """
        self._known_collections.add(name)
        self.database.create_collection(name)
        for node in self.alive_replicas():
            node.database.create_collection(name)

    # -- fault surface -------------------------------------------------------------------

    def crash(self, node_id: str) -> bool:
        """Crash ``node_id``; returns whether the group lost its primary."""
        node = self.node(node_id)
        if not node.alive:
            return False
        # Delivery is lazy, so first materialise everything that had already
        # *arrived* by now -- the node's durable state at the moment it dies.
        # Whatever stays pending was genuinely in flight and is lost with
        # the crash (flagged stale if this node ever resumes service).
        node.deliver_until(self.clock.now())
        node.alive = False
        # While dead the node receives no ship fan-out: from here on an
        # empty link no longer proves it is caught up (until the next seed).
        node.link_sound = False
        self._serving_ids = None
        self.counters.increment("crashes")
        if node is self.primary_node:
            # The process is gone: no more change-stream processing, no more
            # log shipping.  (The persistent EBF/TTL state lives in the
            # shared coherence tier and is untouched.)
            self._unsubscribe()
            self.server.close()
            return True
        return False

    def promote(self) -> Optional[Dict[str, object]]:
        """Fail over: promote the freshest live replica to primary.

        Every live replica first applies all log records that reached it;
        the one with the highest applied sequence wins (ties break to the
        lowest node index -- deterministic).  Records still in flight to the
        winner are the asynchronous loss window: their keys are flagged stale
        in the surviving EBF so no cache keeps trusting data the new primary
        never had (fail-stale).  Surviving replicas are snapshot-realigned to
        the new primary, whose change stream becomes the new shipping source.

        Returns a promotion record, or ``None`` when the primary is alive or
        no replica survived (total shard outage).
        """
        if self.primary_alive:
            return None
        timestamp = self.clock.now()
        live = [
            (index, node)
            for index, node in enumerate(self.nodes)
            if node.alive and node is not self.primary_node
        ]
        for _index, node in live:
            node.deliver_until(timestamp)
        if not live:
            return None
        # Freshness is (epoch, sequence): sequence numbers restart with each
        # primary's change stream, so a node that rejoined with old-epoch
        # state can never outrank a current-epoch survivor on raw sequence.
        best_index, best = min(
            live,
            key=lambda item: (-item[1].epoch, -item[1].applied_sequence, item[0]),
        )

        # The loss window is everything the deposed primary acknowledged
        # that the winner never applied -- derived from the primary's own
        # change stream, not from the winner's link: records still in flight
        # on another peer's link, or written while the winner was crashed,
        # would otherwise be lost silently with no fail-stale flag.  For a
        # winner from an older epoch the whole retained stream counts (its
        # sequence is not comparable).  The retained history is bounded, so
        # when it cannot prove completeness for the gap, every document the
        # deposed primary held is absorbed conservatively.
        deposed = self.primary_node
        best.link.clear()
        since = best.applied_sequence if best.epoch == self._epoch else 0
        stream = deposed.database.change_stream
        if stream.covers_since(since):
            lost_events = stream.replay_since(since)
            self._absorb_lost_events(best, lost_events, deposed.database, timestamp)
            lost_count = len(lost_events)
        else:
            self._absorb_full_database(best, deposed.database, timestamp)
            lost_count = stream.last_sequence - since

        previous = deposed.node_id
        self._install_server(best, timestamp)

        # Surviving replicas may have applied past (or diverged from) the new
        # primary's state; realign them with a snapshot resync.
        upto = best.database.change_stream.last_sequence
        for index, node in enumerate(self.nodes):
            if index == best_index or not node.alive:
                continue
            node.seed_from(best.database, upto_sequence=upto, upto_timestamp=timestamp)
            node.epoch = self._epoch

        info: Dict[str, object] = {
            "shard_id": self.shard_id,
            "node_id": best.node_id,
            "previous_primary": previous,
            "at": timestamp,
            "lost_records": lost_count,
        }
        self.promotions.append(info)
        self.counters.increment("promotions")
        return info

    def recover(self, node_id: str) -> str:
        """Bring a crashed node back.

        With a live primary the node rejoins as a replica via snapshot
        resync (its pre-crash state is discarded -- it may have diverged).
        A node rejoining a primary-*less* group that still has live replicas
        becomes a promotion candidate like them (its retained data competes
        on freshness; the pending failover -- or the cluster -- promotes the
        freshest).  Only when no other node is alive does the recovered node
        resume service as primary from the cluster's surviving durable
        state; the caller (cluster) is expected to rebuild query
        registrations, exactly as after a promotion.

        Returns ``"replica"``, ``"primary"`` (service restored), or
        ``"noop"`` when the node was already alive.
        """
        node = self.node(node_id)
        if node.alive:
            return "noop"
        timestamp = self.clock.now()
        node.alive = True
        self._serving_ids = None
        self.counters.increment("recoveries")
        if self.primary_alive and node is not self.primary_node:
            node.seed_from(
                self.database,
                upto_sequence=self.database.change_stream.last_sequence,
                upto_timestamp=timestamp,
            )
            node.epoch = self._epoch
            return "replica"
        if not self.primary_alive and node is not self.primary_node and any(
            other.alive and other is not node for other in self.replica_nodes()
        ):
            # Primary-less but not alone: rejoin as a promotion candidate
            # with retained (old-epoch) data; promote() compares epochs, so
            # it only wins against candidates at least as stale.
            return "replica"
        # Total outage: service resumes on the recovered node.  The node
        # restores from the cluster's *freshest durable state* -- the last
        # serving primary's disk -- not merely its own copy: resuming from a
        # stale replica disk would silently roll back writes the promoted-era
        # primary acknowledged AND re-issue their version numbers to new
        # content, aliasing ETags (a conditional revalidation would 304 the
        # wrong body -- fail-incorrect, which this layer never permits).
        previous = self.primary_node
        if node is not previous:
            node.seed_from(
                previous.database,
                upto_sequence=previous.database.change_stream.last_sequence,
                upto_timestamp=timestamp,
            )
        else:
            # The last primary itself came back.  Its durable state was
            # materialised at crash time (crash() delivers everything that
            # had arrived); records still pending were in flight when it
            # died and are lost -- absorbed like a promotion's loss window.
            lost = node.link.pending_records()
            node.link.clear()
            self._absorb_lost_records(node, lost, timestamp)
        self._install_server(node, timestamp)
        return "primary"

    def _install_server(self, node: ReplicaNode, timestamp: float) -> None:
        """Make ``node`` the serving primary: role, new epoch, server, shipping.

        The retiring server's counters are added to ``retired_statistics``.
        The database is first topped up with every collection the shard has
        ever materialised (the node may have been down when one was created;
        a scatter query hitting a missing collection would raise instead of
        degrading).
        """
        for name in self._known_collections:
            node.database.create_collection(name)
        self.primary_node = node
        self._epoch += 1
        node.epoch = self._epoch
        retired = self.retired_statistics
        for name, value in self.server.statistics().items():
            if name not in GAUGE_STATISTICS:
                retired[name] = retired.get(name, 0) + value
        self.server = self.server_factory(node.database, self.ebf, self.ttl_estimator)
        self._unsubscribe = node.database.subscribe(self._ship)
        self._serving_ids = None

    def _absorb_lost_records(
        self, node: ReplicaNode, lost: List[LogRecord], timestamp: float
    ) -> None:
        """Absorb a link backlog the resuming node never applied (fail-stale).

        Same obligations as :meth:`_absorb_lost_events`, with the
        authoritative versions taken from the shipped records themselves
        (the shipping-era primary's database may not survive to be read).
        """
        for record in lost:
            event = record.event
            self.ebf.report_invalidation(
                record_key(event.collection, event.document_id), timestamp
            )
            if event.version > 0:
                node.database.create_collection(event.collection).restore_version_floors(
                    {event.document_id: event.version}
                )

    def _absorb_lost_events(
        self,
        node: ReplicaNode,
        lost_events: List[ChangeEvent],
        source: Database,
        timestamp: float,
    ) -> None:
        """Account for acknowledged writes a new primary never applied.

        Two obligations per lost document: flag its key stale in the
        surviving coherence filter (caches must revalidate rather than trust
        state the new primary never had), and raise its version floor past
        the highest version the deposed primary issued (read from
        ``source``, the deposed primary's database) -- otherwise the next
        write would re-assign that version number to different content, and
        the version-keyed ETags/caches would alias two bodies
        (fail-incorrect).
        """
        floors_by_collection: Dict[str, Dict[str, int]] = {}
        seen: Set[Tuple[str, str]] = set()
        for event in lost_events:
            identity = (event.collection, event.document_id)
            if identity in seen:
                continue
            seen.add(identity)
            self.ebf.report_invalidation(
                record_key(event.collection, event.document_id), timestamp
            )
            floors = floors_by_collection.get(event.collection)
            if floors is None:
                try:
                    floors = source.collection(event.collection).version_floors()
                except CollectionNotFoundError:
                    floors = {}
                floors_by_collection[event.collection] = floors
            final_version = floors.get(event.document_id, 0)
            if final_version > 0:
                node.database.create_collection(event.collection).restore_version_floors(
                    {event.document_id: final_version}
                )

    def _absorb_full_database(
        self, node: ReplicaNode, source: Database, timestamp: float
    ) -> None:
        """Conservative loss-window absorption: flag and floor *everything*.

        Used when the deposed primary's retained change history cannot prove
        completeness for the winner's gap (deep lag or an old-epoch winner
        beyond the retention window).  Flagging every key the deposed
        primary ever versioned over-invalidates -- strictly fail-stale --
        and raising every floor guarantees no issued version number is ever
        recycled.
        """
        for name in source.collection_names():
            floors = source.collection(name).version_floors()
            if not floors:
                continue
            collection = node.database.create_collection(name)
            collection.restore_version_floors(floors)
            for document_id in floors:
                self.ebf.report_invalidation(record_key(name, document_id), timestamp)

    def __repr__(self) -> str:
        return (
            f"ReplicaGroup(shard={self.shard_id}, rf={self.config.replication_factor}, "
            f"primary={self.primary_node_id}, alive={self.primary_alive})"
        )
