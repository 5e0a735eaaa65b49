"""The staged read pipeline: one implementation of the cacheable read path.

Every cacheable read in Quaestor walks the same bookkeeping sequence --
execute, versions/etag fingerprint, capacity admission, TTL estimation,
representation choice, InvaliDB registration, active-list entry, EBF
reporting.  :class:`ReadPipeline` owns the stages once; the server's entry
points are thin orchestrations over them:

* :meth:`ReadPipeline.run_record_read` -- the single-record path
  (``handle_read``): execute, fingerprint, TTL, EBF report.
* :meth:`ReadPipeline.run_query` -- the single-server query path
  (``handle_query``): all stages, admission probed and committed in one go.
* :meth:`ReadPipeline.prepare_shard_query` -- the cluster integration point
  (the scatter/gather in :mod:`repro.cluster.deployment`).  It runs the
  side-effect-free prefix (execute + admission *probe*) and returns a
  :class:`PreparedShardRead`
  whose :meth:`~PreparedShardRead.commit` performs every stateful stage
  (slot commit, InvaliDB registration, active list, EBF) and whose
  :meth:`~PreparedShardRead.abort` performs none of them.  The cluster
  probes all shards first and commits only when every shard admits -- the
  two-phase admission that keeps one rejecting shard from making the
  others maintain a merged result that is never cached.

The stages mutate a :class:`ReadContext`, the single carrier of per-read
state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.representation import (
    ResultRepresentation,
    ResultTagMemo,
    choose_representation,
    object_list_body,
    query_result_body,
)
from repro.db.documents import Document
from repro.db.query import Query, record_key
from repro.errors import DocumentNotFoundError
from repro.invalidb.capacity import AdmissionTicket
from repro.rest.etags import etag_for_version
from repro.rest.messages import Response, StatusCode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (server imports us)
    from repro.core.server import QuaestorServer
    from repro.resilience import DeadlineBudget


@dataclass(slots=True)
class ReadContext:
    """Per-read state threaded through the pipeline stages."""

    cache_key: str
    now: float
    #: The client's original query (``None`` on the record-read path); its
    #: cache key is the key every stage books under.
    query: Optional[Query] = None
    #: The query actually executed against the local database.  Differs from
    #: ``query`` only on the shard path, where the cluster passes the scatter
    #: window (``limit + offset`` candidates, no offset).
    fetch_query: Optional[Query] = None
    documents: List[Document] = field(default_factory=list)
    versions: Dict[str, int] = field(default_factory=dict)
    member_keys: List[str] = field(default_factory=list)
    etag: Optional[str] = None
    ticket: Optional[AdmissionTicket] = None
    ttl: float = 0.0
    shared_ttl: float = 0.0
    representation: Optional[ResultRepresentation] = None
    #: Per-request deadline budget propagated from the cluster's scatter
    #: point (``None`` outside the resilience layer).  Stages may consult the
    #: remaining budget; an exhausted budget skips the admission probe.
    deadline: Optional["DeadlineBudget"] = None


def render_record_read(
    collection: str,
    document_id: str,
    document: Document,
    version: int,
    now: float,
    config,
    ttl_estimator,
    ebf,
) -> Response:
    """Render a record-read response: body shape, ETag, TTL, EBF report.

    The single definition of what a served record looks like on the wire,
    shared by the primary pipeline (:meth:`ReadPipeline.run_record_read`) and
    the replication layer's replica reads
    (:meth:`repro.replication.ReplicaGroup._replica_read` hands in the
    replica's document/version with the group's persistent estimator and
    filter).  Client-side version-keyed caches rely on primary- and
    replica-served records being byte-shaped identically; sharing this helper
    makes that a structural guarantee instead of a convention.
    """
    etag = etag_for_version(collection, document_id, version)
    body = {"document": document, "version": version}
    if not config.cache_records:
        return Response.uncacheable(body, etag=etag)
    key = record_key(collection, document_id)
    ttl = ttl_estimator.estimate_record(key, now)
    shared_ttl = ttl * config.cdn_ttl_factor
    ebf.report_read(key, shared_ttl, now)
    return Response.ok(body, ttl=ttl, shared_ttl=shared_ttl, etag=etag)


class ReadPipeline:
    """The staged cacheable read path, bound to one :class:`QuaestorServer`."""

    def __init__(self, server: "QuaestorServer") -> None:
        self.server = server
        self._result_tags = ResultTagMemo()

    # -- stages ------------------------------------------------------------------------

    def execute(self, ctx: ReadContext) -> None:
        """Run the fetch query; the collection hands back the member versions with it."""
        query = ctx.fetch_query
        collection = self.server.database.collection(query.collection)
        ctx.documents, ctx.versions = collection.find_versioned(query)

    def fingerprint(self, ctx: ReadContext) -> None:
        """Derive the result etag and record it with the staleness auditor."""
        ctx.etag = self._result_tags.tag(ctx.cache_key, ctx.versions)
        self.server.auditor.record_version(ctx.cache_key, ctx.etag, ctx.now)

    def probe_admission(self, ctx: ReadContext) -> bool:
        """Phase-one admission: would this query be worth caching?"""
        server = self.server
        ctx.ticket = server.capacity.probe(ctx.cache_key, result_size=len(ctx.documents))
        if not ctx.ticket.admitted:
            server.counters.increment("queries_uncacheable")
        return ctx.ticket.admitted

    def commit_admission(self, ctx: ReadContext) -> bool:
        """Phase-two admission: take the slot the probe decided on.

        Returns ``False`` only when the ticket went stale (the slot the probe
        saw was taken by an interleaved admission) and the capacity manager's
        re-arbitration rejected -- impossible when probe and commit run
        back-to-back, as on the single-server path.
        """
        return self.server.capacity.commit(ctx.ticket)

    def abort_admission(self, ctx: ReadContext) -> None:
        """Discard a successful probe without occupying its slot."""
        if ctx.ticket is not None:
            self.server.capacity.abort(ctx.ticket)

    def estimate_ttl(self, ctx: ReadContext) -> None:
        """Estimate the TTL from the member records' write rates."""
        server = self.server
        ctx.member_keys = [
            record_key(ctx.query.collection, doc_id) for doc_id in ctx.versions
        ]
        ctx.ttl = server.ttl_estimator.estimate_query(ctx.cache_key, ctx.member_keys, ctx.now)
        ctx.shared_ttl = ctx.ttl * server.config.cdn_ttl_factor

    def choose_client_representation(self, ctx: ReadContext) -> None:
        """Cost-based id-list vs object-list choice for a client-facing result."""
        ctx.representation = choose_representation(
            result_size=len(ctx.documents),
            assumed_record_hit_rate=self.server.config.assumed_record_hit_rate,
            object_list_max_size=self.server.config.object_list_max_size,
        )

    def register_in_invalidb(self, ctx: ReadContext) -> None:
        """Register the served window in InvaliDB under the original cache key.

        On the shard path the fetch query is the scatter window (offset 0)
        and must be registered *aliased* to the original key: with the
        client's offset applied shard-locally, documents in the global window
        whose local rank lies below the offset would never trigger
        notifications.
        """
        if ctx.fetch_query is not ctx.query:
            self.server.register_in_invalidb(ctx.fetch_query.aliased(ctx.cache_key))
        else:
            self.server.register_in_invalidb(ctx.query)

    def record_active(self, ctx: ReadContext) -> None:
        """Enter the query into the active list and the capacity cost model."""
        server = self.server
        server.active_list.record_read(
            ctx.query, ctx.now, ctx.ttl, len(ctx.documents), ctx.representation
        )
        server.capacity.record_read(ctx.cache_key, len(ctx.documents))

    def report_to_ebf(self, ctx: ReadContext) -> None:
        """Report the read to the EBF (query key + members, if client-cacheable).

        The query key is tracked with the *highest* TTL issued to any cache
        (the CDN's s-maxage), otherwise a stale copy could outlive its EBF
        entry.  Member records are only client-cacheable when delivered
        inside an object-list, so they are tracked exactly then, with the
        private TTL.
        """
        server = self.server
        server.ebf.report_read(ctx.cache_key, ctx.shared_ttl, ctx.now)
        if ctx.representation is ResultRepresentation.OBJECT_LIST and ctx.member_keys:
            server.ebf.report_read_many(ctx.member_keys, ctx.ttl, ctx.now)

    # -- orchestrations ----------------------------------------------------------------

    def run_record_read(self, collection: str, document_id: str) -> Response:
        """The single-record path (``handle_read``)."""
        server = self.server
        if server.tracer is not None:
            server.tracer.event("pipeline.record_read", "collection", collection)
        now = server.now()
        try:
            document, version = server.database.collection(collection).get_versioned(document_id)
        except DocumentNotFoundError:
            return Response.uncacheable(None, status=StatusCode.NOT_FOUND)

        response = render_record_read(
            collection,
            document_id,
            document,
            version,
            now,
            config=server.config,
            ttl_estimator=server.ttl_estimator,
            ebf=server.ebf,
        )
        # Primary-only: the authoritative version enters the audit history
        # (replica reads share the rendering above but never this record).
        server.auditor.record_version(record_key(collection, document_id), response.etag, now)
        return response

    def run_query(self, query: Query) -> Response:
        """The single-server query path (``handle_query``): probe + commit."""
        server = self.server
        ctx = ReadContext(query.cache_key, server.now(), query=query, fetch_query=query)
        self.execute(ctx)
        self.fingerprint(ctx)

        if not server.config.cache_queries:
            return self._uncacheable_client_response(ctx)
        admitted = self.probe_admission(ctx)
        if server.tracer is not None:
            server.tracer.event("pipeline.admission", "admitted", admitted)
        if not admitted:
            return self._uncacheable_client_response(ctx)

        self.estimate_ttl(ctx)
        self.choose_client_representation(ctx)
        if not self.commit_admission(ctx):
            # Unreachable while probe and commit run back-to-back, but any
            # future stage between them that touches admission must not leave
            # a cached entry with no admission slot backing it.
            server.counters.increment("queries_uncacheable")
            return self._uncacheable_client_response(ctx)
        self.register_in_invalidb(ctx)
        self.record_active(ctx)
        self.report_to_ebf(ctx)

        body = query_result_body(
            ctx.documents, ctx.versions, ctx.representation, record_ttl=ctx.ttl
        )
        return Response.ok(body, ttl=ctx.ttl, shared_ttl=ctx.shared_ttl, etag=ctx.etag)

    def prepare_shard_query(
        self, query: Query, scatter_query: Optional[Query] = None, deadline=None
    ) -> "PreparedShardRead":
        """The cluster integration point: execute + probe, defer everything else.

        Runs only the side-effect-free prefix of the pipeline.  The returned
        :class:`PreparedShardRead` carries the raw local documents (the
        cluster merges those regardless of cacheability) and the admission
        probe's verdict; redeem it with exactly one of
        :meth:`~PreparedShardRead.commit` or :meth:`~PreparedShardRead.abort`.

        ``deadline`` is the scatter's shared
        :class:`~repro.resilience.DeadlineBudget` (``None`` outside the
        resilience layer).  A shard reached with the budget already spent
        still answers -- the documents are on hand -- but the admission
        probe is skipped: a request that is out of time must not start
        fleet-wide caching bookkeeping its gather point will abort anyway.
        """
        server = self.server
        fetch = scatter_query if scatter_query is not None else query
        ctx = ReadContext(
            query.cache_key, server.now(), query=query, fetch_query=fetch, deadline=deadline
        )
        self.execute(ctx)
        body = {"documents": ctx.documents, "record_versions": ctx.versions}
        if server.config.cache_queries:
            if deadline is not None and deadline.exhausted:
                server.counters.increment("deadline_skipped_probes")
            else:
                self.probe_admission(ctx)
        prepared = PreparedShardRead(self, ctx, body)
        if server.tracer is not None:
            server.tracer.event("pipeline.shard_probe", "admitted", prepared.admitted)
        return prepared

    def _uncacheable_client_response(self, ctx: ReadContext) -> Response:
        """An uncached (but etagged) object-list result for the client."""
        body = object_list_body(ctx.documents, ctx.versions, record_ttl=0.0)
        return Response.uncacheable(body, etag=ctx.etag)


class PreparedShardRead:
    """A probed shard read awaiting the cluster's fleet-wide admission verdict.

    Phase one (:meth:`ReadPipeline.prepare_shard_query`) executed the scatter
    window and probed capacity without side effects.  Phase two is one of:

    * :meth:`commit` -- every shard admitted: take the admission slot,
      register in InvaliDB, enter the active list, report to the EBF, and
      return the cacheable shard response.
    * :meth:`abort` -- some shard rejected (or caching is disabled): discard
      the probe and return the raw documents uncacheable.  No admission slot,
      InvaliDB registration or active-list entry is retained for a key the
      shard had not admitted before (keys committed by an *earlier* scatter
      keep theirs -- see :meth:`abort`).
    """

    __slots__ = ("_pipeline", "ctx", "body", "admitted", "_resolved")

    def __init__(
        self,
        pipeline: ReadPipeline,
        ctx: ReadContext,
        body: Dict[str, Any],
    ) -> None:
        self._pipeline = pipeline
        self.ctx = ctx
        self.body = body
        #: Whether this shard's probe admitted the query, read once off the
        #: context's ticket (which the probe fixed): absent (caching
        #: disabled) or rejected both read as not admitted.
        self.admitted = ctx.ticket is not None and ctx.ticket.admitted
        self._resolved = False

    def commit(self) -> Response:
        """Perform all stateful stages and return the cacheable shard response.

        Committing a rejected read is a programming error (and leaves the
        read unresolved, so the caller can still :meth:`abort` it).  A ticket
        that went stale between probe and commit -- the slot it saw was taken
        by an interleaved admission -- is re-arbitrated by the capacity
        manager; if that rejects, the read degrades to the uncacheable
        response an up-front rejection would have produced.
        """
        ttls = self.commit_ttls()
        if ttls is None:
            return Response.uncacheable(self.body)
        return Response.ok(self.body, ttl=ttls[0], shared_ttl=ttls[1])

    def commit_ttls(self) -> Optional[Tuple[float, float]]:
        """:meth:`commit` without the response: the shard's ``(ttl, shared_ttl)``.

        ``None`` when re-arbitration rejected a stale ticket (the shard
        result is uncacheable).  The cluster's merge consumes exactly these
        terms, so a scatter builds no per-shard response.
        """
        if not self.admitted:
            raise ValueError("cannot commit a shard read that was not admitted")
        self._resolve()
        pipeline, ctx = self._pipeline, self.ctx
        if pipeline.server.tracer is not None:
            pipeline.server.tracer.event("pipeline.shard_commit")
        if not pipeline.commit_admission(ctx):
            pipeline.server.counters.increment("queries_uncacheable")
            return None
        pipeline.estimate_ttl(ctx)
        # Shard results are merged before the representation is chosen, so the
        # conservative OBJECT_LIST entry makes every notification invalidate.
        ctx.representation = ResultRepresentation.OBJECT_LIST
        pipeline.register_in_invalidb(ctx)
        pipeline.record_active(ctx)
        pipeline.report_to_ebf(ctx)
        return ctx.ttl, ctx.shared_ttl

    def abort(self) -> Response:
        """Discard the probe and return the raw documents uncacheable.

        For a key this shard never admitted, nothing is retained.  A key that
        was *already admitted* (committed by an earlier scatter) deliberately
        keeps its slot, InvaliDB registration and active-list entry: caches
        may still hold the earlier merged result within its TTL, and only the
        live registration turns writes into the invalidations the staleness
        bound depends on.  Such entries age out through normal displacement
        once the query cools down.
        """
        self._resolve()
        if self._pipeline.server.tracer is not None:
            self._pipeline.server.tracer.event("pipeline.shard_abort", "admitted", self.admitted)
        if self.admitted:
            self._pipeline.abort_admission(self.ctx)
            self._pipeline.server.counters.increment("shard_queries_aborted")
        return Response.uncacheable(self.body)

    def _resolve(self) -> None:
        if self._resolved:
            raise RuntimeError("prepared shard read already committed or aborted")
        self._resolved = True
