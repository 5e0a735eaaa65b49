"""What a served record looks like, and a shard's probed query read.

Every cacheable query in Quaestor takes the same steps -- execute, result
etag, capacity admission, TTL estimate, representation choice, InvaliDB
registration, active-list entry, EBF report.  The
:class:`~repro.core.server.QuaestorServer` runs them in line in its entry
points, and one commit step (:meth:`QuaestorServer._commit_query
<repro.core.server.QuaestorServer._commit_query>`) does every stateful one
for both the single-server query and the cluster's shard commit.  This
module holds the two pieces the server shares with its neighbours:

* :func:`render_record_read` -- the wire shape of a served record, shared by
  the primary's ``handle_read`` and the replication layer's replica reads.
* :class:`PreparedShardRead` -- what
  :meth:`~repro.core.server.QuaestorServer.prepare_shard_query` hands the
  scatter/gather in :mod:`repro.cluster.deployment`: the executed fetch
  window and the admission probe's verdict.  Its
  :meth:`~PreparedShardRead.commit` runs the commit step,
  :meth:`~PreparedShardRead.abort` none of it.  The cluster probes all
  shards first and commits only when every shard admits -- the two-phase
  admission that keeps one rejecting shard from making the others maintain
  a merged result that is never cached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.representation import ResultRepresentation
from repro.db.documents import Document
from repro.db.query import Query, record_key
from repro.invalidb.capacity import AdmissionTicket
from repro.rest.etags import etag_for_version
from repro.rest.messages import Response

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (server imports us)
    from repro.core.server import QuaestorServer


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
    shared by the primary (:meth:`QuaestorServer.handle_read
    <repro.core.server.QuaestorServer.handle_read>`) and the replication
    layer's replica reads (:meth:`repro.replication.ReplicaGroup._replica_read`
    hands in the replica's document/version with the group's persistent
    estimator and filter).  Client-side version-keyed caches rely on primary-
    and replica-served records being byte-shaped identically; sharing this
    helper makes that a structural guarantee instead of a convention.
    """
    etag = etag_for_version(collection, document_id, version)
    body = {"document": document, "version": version}
    if not config.caching:
        return Response.uncacheable(body, etag=etag)
    key = record_key(collection, document_id)
    ttl = ttl_estimator.estimate_record(key, now)
    shared_ttl = ttl * config.cdn_ttl_factor
    ebf.report_read(key, shared_ttl, now)
    return Response.ok(body, ttl=ttl, shared_ttl=shared_ttl, etag=etag)


class PreparedShardRead:
    """A probed shard read awaiting the cluster's fleet-wide admission verdict.

    Phase one (:meth:`QuaestorServer.prepare_shard_query
    <repro.core.server.QuaestorServer.prepare_shard_query>`) executed the
    scatter window and probed capacity without side effects.  Phase two is
    one of:

    * :meth:`commit` -- every shard admitted: take the admission slot,
      register in InvaliDB, enter the active list, report to the EBF, and
      return the shard's ``(ttl, shared_ttl)``.
    * :meth:`abort` -- some shard rejected (or caching is disabled): discard
      the probe; the raw documents in :attr:`body` go out uncacheable.  No
      admission slot, InvaliDB registration or active-list entry is retained
      for a key the shard had not admitted before (keys committed by an
      *earlier* scatter keep theirs -- see :meth:`abort`).
    """

    __slots__ = (
        "_server", "key", "query", "fetch", "now", "documents", "versions", "ticket",
        "body", "admitted", "_resolved",
    )

    def __init__(
        self,
        server: "QuaestorServer",
        key: str,
        query: Query,
        fetch: Query,
        now: float,
        documents: List[Document],
        versions: Dict[str, int],
        ticket: Optional[AdmissionTicket],
    ) -> None:
        self._server = server
        #: The original query's cache key, under which every shard books.
        self.key = key
        self.query = query
        #: The window executed here (the scatter window on the cluster path).
        self.fetch = fetch
        self.now = now
        self.documents = documents
        self.versions = versions
        #: The probe's ticket; ``None`` when caching is off or the deadline was spent.
        self.ticket = ticket
        self.body = {"documents": documents, "record_versions": versions}
        #: Whether this shard's probe admitted the query: absent (caching
        #: disabled, deadline spent) or rejected both read as not admitted.
        self.admitted = ticket is not None and ticket.admitted
        self._resolved = False

    def commit(self) -> Optional[Tuple[float, float]]:
        """Perform all stateful steps and return the shard's ``(ttl, shared_ttl)``.

        The cluster's merge consumes exactly these terms, so a scatter builds
        no per-shard response; the documents are :attr:`body`.  Committing a
        rejected read is a programming error (and leaves the read unresolved,
        so the caller can still :meth:`abort` it).  A ticket that went stale
        between probe and commit -- the slot it saw was taken by an
        interleaved admission -- is re-arbitrated by the capacity manager; if
        that rejects, the result is ``None``: the shard result is uncacheable,
        as an up-front rejection would have left it.
        """
        if not self.admitted:
            raise ValueError("cannot commit a shard read that was not admitted")
        self._resolve()
        server = self._server
        if server.tracer is not None:
            server.tracer.event("pipeline.shard_commit")
        # Shard results are merged before the representation is chosen, so the
        # conservative OBJECT_LIST entry makes every notification invalidate.
        return server._commit_query(
            self.key, self.query, self.fetch, self.documents, self.versions, self.now,
            self.ticket, ResultRepresentation.OBJECT_LIST,
        )

    def abort(self) -> None:
        """Discard the probe; the raw documents stay in :attr:`body`, uncacheable.

        For a key this shard never admitted, nothing is retained.  A key that
        was *already admitted* (committed by an earlier scatter) deliberately
        keeps its slot, InvaliDB registration and active-list entry: caches
        may still hold the earlier merged result within its TTL, and only the
        live registration turns writes into the invalidations the staleness
        bound depends on.  Such entries age out through normal displacement
        once the query cools down.
        """
        self._resolve()
        server = self._server
        if server.tracer is not None:
            server.tracer.event("pipeline.shard_abort", "admitted", self.admitted)
        if self.admitted:
            server.capacity.abort(self.ticket)
            server.counters.increment("shard_queries_aborted")

    def _resolve(self) -> None:
        if self._resolved:
            raise RuntimeError("prepared shard read already committed or aborted")
        self._resolved = True
