"""The Quaestor server: a caching middleware in front of the document database.

The server answers REST-style requests for records, queries and writes.  A
cacheable query takes the paper's steps in line -- execute, result etag,
capacity admission, TTL estimate, representation choice, InvaliDB
registration, active-list entry, EBF report -- and one commit step
(:meth:`QuaestorServer._commit_query`) does every stateful one for both the
single-server query and a cluster shard's commit, so the two cannot drift.
Writes flow through the change stream into the invalidation machinery.

Public entry points
-------------------
* :meth:`QuaestorServer.handle_read`, :meth:`QuaestorServer.handle_query` --
  the cacheable read path.
* :meth:`QuaestorServer.handle_insert`, :meth:`QuaestorServer.handle_update`,
  :meth:`QuaestorServer.handle_delete` -- the write path; every acknowledged
  write flows through the change stream into the invalidation machinery.
* :meth:`QuaestorServer.get_bloom_filter` -- the flat EBF snapshot
  piggybacked to connecting clients.

Cluster integration point
-------------------------
A sharded deployment (:mod:`repro.cluster`) runs one ``QuaestorServer`` per
shard and sends it reads and writes through the handlers above, one request
each, plus one additional entry point:

* :meth:`QuaestorServer.prepare_shard_query` -- phase one of the two-phase
  scatter: executes the scatter window against this shard's local data and
  *probes* capacity admission without side effects, returning a
  :class:`~repro.core.read_path.PreparedShardRead`.  The
  :class:`~repro.cluster.QuaestorCluster` probes every shard and only when
  all admit redeems the prepared reads with ``commit()`` (admission slot,
  InvaliDB registration, active-list entry, EBF report -- all under the
  *original* query's cache key); otherwise it ``abort()``-s them all, so one
  rejecting shard leaves zero new registrations anywhere (keys committed by
  an earlier scatter keep theirs, so still-cached merges stay invalidatable).

Change stream to InvaliDB
-------------------------
The paper's deployment puts Redis queues between the Quaestor servers and
InvaliDB because they are separate processes on separate machines.  Here
both run in one call stack and matching is synchronous, so no queue is
modelled: :meth:`QuaestorServer._on_change` appends each after-image to a
pending list and :meth:`QuaestorServer._process_invalidations` matches that
list in arrival order, then handles the notifications in order.  Every write
handler drains it before it acknowledges, one write per request.  A query
registration runs the same drain right after activating the query, so an
after-image that was pending when the query registered (a write made straight
on the :class:`~repro.db.Database`) is matched against it.  The lag of a
purge behind its write is modelled by the simulation's
``NetworkTopology.invalidation_delay``, not here.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.bloom.bloom_filter import BloomFilter
from repro.bloom.expiring import ExpiringBloomFilter
from repro.caching.invalidation import InvalidationCache
from repro.clock import Clock
from repro.core.active_list import ActiveList
from repro.core.config import QuaestorConfig
from repro.core.read_path import PreparedShardRead, render_record_read
from repro.core.representation import (
    ResultRepresentation,
    ResultTagMemo,
    choose_representation,
    object_list_body,
    query_result_body,
)
from repro.db.changestream import ChangeEvent, OperationType
from repro.db.database import Database
from repro.db.documents import Document
from repro.db.query import Query, record_key
from repro.errors import DocumentNotFoundError
from repro.invalidb.capacity import AdmissionTicket, CapacityManager
from repro.invalidb.cluster import InvaliDBCluster
from repro.invalidb.events import Notification
from repro.metrics.counters import Counter
from repro.rest.etags import etag_for_version
from repro.rest.messages import Response, StatusCode
from repro.ttl.base import TTLEstimator

#: A purge target is either an invalidation-based cache or a callable taking
#: the purged key (e.g. a simulator hook that applies the purge after a delay).
PurgeTarget = Union[InvalidationCache, Callable[[str], None]]

#: The point-in-time gauges of :meth:`QuaestorServer.statistics`; every other
#: entry is a counter that only grows.
GAUGE_STATISTICS = frozenset(
    ("active_queries", "invalidb_active_queries", "ebf_stale_keys", "ebf_fill_ratio")
)


class QuaestorServer:
    """DBaaS middleware implementing the paper's caching scheme."""

    def __init__(
        self,
        database: Database,
        config: Optional[QuaestorConfig] = None,
        invalidb: Optional[InvaliDBCluster] = None,
        ttl_estimator: Optional[TTLEstimator] = None,
        ebf: Optional[ExpiringBloomFilter] = None,
        auditor: Optional["StalenessAuditor"] = None,
    ) -> None:
        self.database = database
        self.config = config if config is not None else QuaestorConfig()
        self._clock: Clock = database.clock

        self.ebf = (
            ebf
            if ebf is not None
            else ExpiringBloomFilter(num_bits=self.config.ebf_bits, clock=self._clock)
        )
        self.ttl_estimator: TTLEstimator = (
            ttl_estimator
            if ttl_estimator is not None
            else self.config.build_ttl_estimator()
        )
        self.invalidb = invalidb if invalidb is not None else InvaliDBCluster(matching_nodes=1)
        self.capacity = CapacityManager(
            self.invalidb, max_active_queries=self.config.max_active_queries
        )
        self.active_list = ActiveList()
        # Imported lazily: the staleness auditor lives in the simulation
        # package, which itself builds on the core package.
        from repro.simulation.staleness import StalenessAuditor

        #: Every authoritative install enters ``auditor.record_version``.
        self.auditor = auditor if auditor is not None else StalenessAuditor()
        #: Optional :class:`repro.obs.TraceRecorder`; events are only emitted
        #: inside an open (sampled) request span, so background InvaliDB
        #: drains stay silent.
        self.tracer = None
        self.counters = Counter()
        self._counts = self.counters.counts  # the live mapping, for ``+= 1`` per write
        self._result_tags = ResultTagMemo()

        #: One ``purge(key)`` callable per registered target.
        self._purges: List[Callable[[str], None]] = []
        #: After-images not yet matched against InvaliDB, in arrival order.
        self._pending_changes: List[ChangeEvent] = []
        #: The newest change event: write handlers read their assigned version off it.
        self._last_change: Optional[ChangeEvent] = None

        # Every acknowledged write flows through the change stream into the
        # invalidation machinery.
        self._unsubscribe_change_stream = self.database.subscribe(self._on_change)

    # -- wiring -----------------------------------------------------------------------

    def register_purge_target(self, target: PurgeTarget) -> None:
        """Register an invalidation-based cache (or purge callback) to purge."""
        self._purges.append(target.purge if isinstance(target, InvalidationCache) else target)

    def close(self) -> None:
        """Detach this server from its database's change stream.

        Models process death in the replication layer: a crashed primary must
        stop reacting to writes (there will be none -- the cluster stops
        routing to it -- but the detachment makes the lifecycle explicit and
        keeps a later database reuse from resurrecting a dead server's
        invalidation machinery).  Idempotent.
        """
        self._unsubscribe_change_stream()

    # -- client bootstrap -----------------------------------------------------------------

    def get_bloom_filter(self) -> BloomFilter:
        """The flat Expiring Bloom Filter copy piggybacked to clients."""
        self.counters.increment("ebf_downloads")
        return self.ebf.to_flat(self._clock.now())

    # -- read path ---------------------------------------------------------------------------

    def handle_read(self, collection: str, document_id: str) -> Response:
        """Serve an individual record."""
        self.counters.increment("reads")
        if self.tracer is not None:
            self.tracer.event("pipeline.record_read", "collection", collection)
        now = self._clock.now()
        try:
            document, version = self.database.collection(collection).get_versioned(document_id)
        except DocumentNotFoundError:
            return Response.uncacheable(None, status=StatusCode.NOT_FOUND)
        response = render_record_read(
            collection, document_id, document, version, now,
            self.config, self.ttl_estimator, self.ebf,
        )
        # Primary-only: the authoritative version enters the audit history
        # (replica reads share the rendering above but never this record).
        self.auditor.record_version(record_key(collection, document_id), response.etag, now)
        return response

    def handle_query(self, query: Query) -> Response:
        """Serve a query result (object-list or id-list representation).

        Executes the query, tags the result, and -- when caching is on and
        capacity admission probes in -- commits it (:meth:`_commit_query`);
        otherwise the result goes out as an uncached, etagged object-list.
        """
        self.counters.increment("queries")
        key = query.cache_key
        now = self._clock.now()
        documents, versions = self.database.collection(query.collection).find_versioned(query)
        etag = self._result_tags.tag(key, versions)
        self.auditor.record_version(key, etag, now)
        if self.config.caching:
            ticket = self.capacity.probe(key, result_size=len(documents))
            if not ticket.admitted:
                self.counters.increment("queries_uncacheable")
            if self.tracer is not None:
                self.tracer.event("pipeline.admission", "admitted", ticket.admitted)
            if ticket.admitted:
                representation = choose_representation(
                    result_size=len(documents),
                    assumed_record_hit_rate=self.config.assumed_record_hit_rate,
                    object_list_max_size=self.config.object_list_max_size,
                )
                ttls = self._commit_query(
                    key, query, query, documents, versions, now, ticket, representation
                )
                if ttls is not None:
                    ttl, shared_ttl = ttls
                    body = query_result_body(documents, versions, representation, record_ttl=ttl)
                    return Response.ok(body, ttl=ttl, shared_ttl=shared_ttl, etag=etag)
        body = object_list_body(documents, versions, record_ttl=0.0)
        return Response.uncacheable(body, etag=etag)

    def prepare_shard_query(
        self, query: Query, scatter_query: Optional[Query] = None, deadline=None
    ) -> PreparedShardRead:
        """Cluster integration point, phase one: execute and *probe* admission.

        Executes the fetch window and probes capacity without side effects,
        and returns a :class:`~repro.core.read_path.PreparedShardRead`.  The
        cluster probes every shard this way and then redeems each prepared
        read with exactly one of ``commit()`` (all shards admitted: the
        commit step takes the admission slot, InvaliDB registration,
        active-list entry and EBF report under the *original* query's cache
        key; it returns the shard's ``(ttl, shared_ttl)``) or ``abort()`` (no
        bookkeeping is retained and the raw documents in ``body`` go out
        uncacheable).

        Parameters
        ----------
        query:
            The client's original query; its ``cache_key`` is the key under
            which the merged result is cached everywhere.
        scatter_query:
            The per-shard fetch window (typically the original query with
            ``limit + offset`` as limit and no offset, so the global window
            can be cut after the merge).  Defaults to ``query`` itself.
        deadline:
            Optional :class:`~repro.resilience.DeadlineBudget` propagated
            from the scatter point.  A shard reached with the budget already
            spent still answers -- the documents are on hand -- but skips the
            admission probe: a request that is out of time must not start
            fleet-wide caching bookkeeping its gather point will abort anyway.
        """
        self.counters.increment("shard_queries")
        fetch = scatter_query if scatter_query is not None else query
        key = query.cache_key
        now = self._clock.now()
        documents, versions = self.database.collection(fetch.collection).find_versioned(fetch)
        ticket = None
        if self.config.caching:
            if deadline is not None and deadline.exhausted:
                self.counters.increment("deadline_skipped_probes")
            else:
                ticket = self.capacity.probe(key, result_size=len(documents))
                if not ticket.admitted:
                    self.counters.increment("queries_uncacheable")
        prepared = PreparedShardRead(self, key, query, fetch, now, documents, versions, ticket)
        if self.tracer is not None:
            self.tracer.event("pipeline.shard_probe", "admitted", prepared.admitted)
        return prepared

    def _commit_query(
        self, key: str, query: Query, fetch: Query, documents: List[Document],
        versions: Dict[str, int], now: float, ticket: AdmissionTicket,
        representation: ResultRepresentation,
    ) -> Optional[Tuple[float, float]]:
        """The commit step of a probed-in query; returns ``(ttl, shared_ttl)``.

        Takes the admission slot, estimates the TTL from the member records'
        write rates, registers ``fetch`` in InvaliDB under ``key``, enters the
        query into the active list and the capacity cost model, and reports
        the read to the EBF.  ``None`` -- and nothing done -- when the ticket
        went stale (an interleaved admission took the slot the probe saw) and
        the capacity manager's re-arbitration rejected; that cannot happen
        when probe and commit run back-to-back, as in :meth:`handle_query`.

        On the shard path ``fetch`` is the scatter window (offset 0) and is
        registered *aliased* to the original key: with the client's offset
        applied shard-locally, documents in the global window whose local
        rank lies below the offset would never trigger notifications.

        The query key is tracked in the EBF with the *highest* TTL issued to
        any cache (the CDN's s-maxage), otherwise a stale copy could outlive
        its EBF entry.  Member records are only client-cacheable when
        delivered inside an object-list, so they are tracked exactly then,
        with the private TTL.
        """
        if not self.capacity.commit(ticket):
            self.counters.increment("queries_uncacheable")
            return None
        member_keys = [record_key(query.collection, doc_id) for doc_id in versions]
        ttl = self.ttl_estimator.estimate_query(key, member_keys, now)
        shared_ttl = ttl * self.config.cdn_ttl_factor
        self.register_in_invalidb(fetch.aliased(key) if fetch is not query else query)
        size = len(documents)
        self.active_list.record_read(query, now, ttl, size, representation)
        self.capacity.record_read(key, size)
        self.ebf.report_read(key, shared_ttl, now)
        if representation is ResultRepresentation.OBJECT_LIST and member_keys:
            self.ebf.report_read_many(member_keys, ttl, now)
        return ttl, shared_ttl

    # -- write path --------------------------------------------------------------------------

    def handle_insert(self, collection: str, document: Document) -> Response:
        self._counts["writes"] += 1
        inserted = self.database.insert(collection, document)
        self._process_invalidations()
        # The assigned version is not always 1: re-inserting a deleted _id
        # continues its version sequence (versions never alias two contents),
        # so clients must learn the real number.
        version = self._installed_version(collection, str(inserted.get("_id", "")), inserted)
        return Response.uncacheable(
            {"document": inserted, "version": version}, status=StatusCode.CREATED
        )

    def handle_update(self, collection: str, document_id: str, update: Document) -> Response:
        self._counts["writes"] += 1
        try:
            updated = self.database.update(collection, document_id, update)
        except DocumentNotFoundError:
            return Response.uncacheable(None, status=StatusCode.NOT_FOUND)
        self._process_invalidations()
        version = self._installed_version(collection, document_id, updated)
        return Response.uncacheable({"document": updated, "version": version})

    def handle_delete(self, collection: str, document_id: str) -> Response:
        self._counts["writes"] += 1
        try:
            deleted = self.database.delete(collection, document_id)
        except DocumentNotFoundError:
            return Response.uncacheable(None, status=StatusCode.NOT_FOUND)
        self._process_invalidations()
        return Response.uncacheable({"document": deleted})

    def _installed_version(self, collection: str, document_id: str, snapshot: Document) -> int:
        """The version the write that just returned ``snapshot`` installed it at."""
        event = self._last_change
        if event is not None and event.after is snapshot:
            return event.version
        # Detached from the change stream (closed): ask the collection.
        return self.database.collection(collection).version(document_id)

    # -- transactions ----------------------------------------------------------------------------

    def begin_transaction(self) -> "Transaction":
        """Start an optimistic (BOCC-style) transaction against this server."""
        from repro.core.transactions import Transaction

        return Transaction(self)

    # -- change stream / invalidation machinery ---------------------------------------------------

    def _on_change(self, event: ChangeEvent) -> None:
        """React to an acknowledged write: sample rates, invalidate, notify InvaliDB."""
        self._last_change = event
        collection = event.collection
        document_id = event.document_id
        timestamp = event.timestamp
        key = record_key(collection, document_id)
        self.ttl_estimator.observe_write(key, timestamp)

        if event.operation is OperationType.DELETE:
            version_token = f"deleted@{event.sequence}"
        else:
            version_token = etag_for_version(collection, document_id, event.version)
        self.auditor.record_version(key, version_token, timestamp)

        # The record itself becomes stale in all caches holding it.
        self._invalidate_key(key, timestamp)

        # The after-image waits for InvaliDB query matching.
        self._pending_changes.append(event)

    def _process_invalidations(self) -> None:
        """Match the pending after-images in arrival order, then handle the
        notifications they produced in order."""
        if not self._pending_changes:
            return
        events = self._pending_changes
        self._pending_changes = []
        process_event = self.invalidb.process_event
        notifications: List[Notification] = []
        for event in events:
            notifications += process_event(event)
        for notification in notifications:
            self._handle_notification(notification)

    def _handle_notification(self, notification: Notification) -> None:
        query_key = notification.query_key
        entry = self.active_list.get(query_key)
        if entry is None:
            # The query is matched but not currently cached; nothing to purge.
            return
        if (
            entry.representation is ResultRepresentation.ID_LIST
            and not notification.invalidates_id_list()
        ):
            self._counts["notifications_ignored_id_list"] += 1
            return

        self._counts["query_invalidations"] += 1
        if self.tracer is not None:
            self.tracer.event("invalidb.notify", "key", query_key)
        actual_ttl = self.active_list.record_invalidation(query_key, notification.timestamp)
        if actual_ttl is not None:
            self.ttl_estimator.observe_query_invalidation(
                query_key, actual_ttl, notification.timestamp
            )
        self.capacity.record_invalidation(query_key)
        self.auditor.record_version(
            query_key, f"invalidated@{notification.timestamp:.6f}", notification.timestamp
        )
        self._invalidate_key(query_key, notification.timestamp)

    def _invalidate_key(self, key: str, timestamp: float) -> None:
        """Mark ``key`` stale: EBF addition, CDN purges and hooks."""
        counts = self._counts
        added = self.ebf.report_invalidation(key, timestamp)
        if added:
            counts["ebf_additions"] += 1
        if self.tracer is not None:
            self.tracer.event("invalidb.invalidate", "key", key, "ebf_added", added)
        counts["purges_sent"] += 1
        for purge in self._purges:
            purge(key)

    # -- helpers -------------------------------------------------------------------------------------

    def register_in_invalidb(self, query: Query) -> None:
        """Start InvaliDB matching for ``query`` (idempotent per cache key)."""
        if self.invalidb.is_registered(query.cache_key):
            return
        # Stateful queries need the full (unwindowed) matching set so that
        # InvaliDB can maintain the result order beyond the visible window.
        if query.is_stateful:
            full_query = Query(query.collection, query.criteria, sort=query.sort)
            initial = self.database.find(full_query)
        else:
            initial = self.database.find(query)
        self.invalidb.register_query(query, initial)
        # Activation first, then every after-image still pending: the order
        # the paper's query and change queues give.
        self._process_invalidations()
        self.counters.increment("queries_registered")

    # -- statistics -----------------------------------------------------------------------------------

    def statistics(self) -> Dict[str, Any]:
        """A merged statistics snapshot (server counters + EBF + InvaliDB).

        The ``admission_*`` counters expose the two-phase admission outcome:
        probes that found room, commits that took the slot, and aborts --
        successful probes discarded because another shard of the fleet
        rejected the scatter (the wasted-registration work the two-phase
        protocol avoids).
        """
        snapshot: Dict[str, Any] = dict(self.counters.as_dict())
        snapshot["active_queries"] = len(self.active_list)
        snapshot["invalidb_active_queries"] = self.invalidb.active_queries
        snapshot["ebf_stale_keys"] = len(self.ebf)  # the snapshot's one EBF sweep
        snapshot["ebf_fill_ratio"] = self.ebf.fill_ratio()
        snapshot["admission_probes"] = self.capacity.probes
        snapshot["admission_commits"] = self.capacity.commits
        snapshot["admission_aborts"] = self.capacity.aborts
        snapshot["admission_rejections"] = self.capacity.rejections
        return snapshot

    def __repr__(self) -> str:
        return (
            f"QuaestorServer(collections={len(self.database.collection_names())}, "
            f"active_queries={len(self.active_list)})"
        )
