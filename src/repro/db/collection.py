"""Collections: document storage, CRUD with after-images, and query execution."""

from __future__ import annotations

from collections import abc
from itertools import compress
from typing import Dict, List, Optional, Tuple

from repro.clock import Clock
from repro.db.changestream import ChangeEvent, ChangeStream, OperationType
from repro.db.documents import Document, deep_copy
from repro.db.indexes import IndexSet
from repro.db.query import Query, window_ids
from repro.db.updates import apply_update
from repro.errors import DocumentNotFoundError, DuplicateKeyError, InvalidQueryError

#: Covered plans one collection keeps a result for before it starts over.
RESULT_MEMO_SIZE = 1024


class Collection:
    """A named table of documents keyed by ``_id``.

    Every mutating operation produces a :class:`ChangeEvent` carrying the
    record's before- and after-image on the database's change stream -- the
    raw material for InvaliDB's invalidation detection and for the TTL
    estimator's write-rate sampling.

    Ownership: a stored document version is immutable.  Caller data is copied
    once on the way in (:meth:`insert`, :meth:`update`); every document handed
    out -- by reads, writes, queries and change events alike -- is the stored
    snapshot itself, shared by reference.  Callers that want to edit one
    :func:`~repro.db.documents.deep_copy` it first.  The same holds for a
    query's result list and version map (:meth:`find_versioned`): they are
    shared with the result memo and every earlier caller, so they are
    read-only -- copy one before editing it.
    """

    def __init__(self, name: str, clock: Clock, change_stream: ChangeStream) -> None:
        if not name:
            raise ValueError("collection name must not be empty")
        self.name = name
        self._clock = clock
        self._change_stream = change_stream
        self._documents: Dict[str, Document] = {}
        self._versions: Dict[str, int] = {}
        #: Last version a deleted id held, so a re-insert of the same ``_id``
        #: continues the sequence instead of restarting at 1.  A version must
        #: pin one content forever: ETags derive from it (conditional
        #: revalidation would 304 wrongly on a recycled version) and the
        #: client-side caches/session snapshots trust it as a content key.
        #: One int per distinct deleted id -- the same growth order as the
        #: change stream and the staleness auditor's per-key history, and
        #: unlike a collection-wide high-water counter it keeps version
        #: numbers meaningful per document.
        self._deleted_versions: Dict[str, int] = {}
        self._indexes = IndexSet()
        #: Covered plan -> (limit, offset, guards, documents, versions).
        self._results: Dict[object, tuple] = {}
        self.reads = 0
        self.writes = 0

    # -- index administration -----------------------------------------------------

    def create_index(self, field: str) -> None:
        """Create a secondary equality index on ``field`` and backfill it."""
        index = self._indexes.create(field)
        for document_id, document in self._documents.items():
            index.reindex(document_id, None, document)

    def indexed_fields(self) -> List[str]:
        return self._indexes.fields()

    # -- CRUD -----------------------------------------------------------------------

    def insert(self, document: Document) -> Document:
        """Insert ``document``; it must carry a unique ``_id``.

        This is the write ingress for new documents: the caller's dict is
        copied once, and that copy is the stored snapshot that is returned.
        """
        if "_id" not in document:
            raise InvalidQueryError("documents must carry an explicit _id")
        document_id = str(document["_id"])
        if document_id in self._documents:
            raise DuplicateKeyError(f"duplicate _id {document_id!r} in {self.name!r}")
        return self._install(document_id, deep_copy(document), self.next_version(document_id))

    def get(self, document_id: str) -> Document:
        """Return the stored snapshot of ``document_id`` (shared, read-only)."""
        return self.get_versioned(document_id)[0]

    def get_versioned(self, document_id: str) -> Tuple[Document, int]:
        """:meth:`get` and the document's version, from one id probe."""
        self.reads += 1
        document_id = str(document_id)
        document = self._documents.get(document_id)
        if document is None:
            raise DocumentNotFoundError(f"{self.name}/{document_id} does not exist")
        return document, self._versions[document_id]

    def version(self, document_id: str) -> int:
        """Monotonic per-document version counter (used for Etags)."""
        version = self._versions.get(str(document_id))
        if version is None:
            raise DocumentNotFoundError(f"{self.name}/{document_id} does not exist")
        return version

    def next_version(self, document_id: str) -> int:
        """The version the next insert or update of ``document_id`` is assigned.

        One past everything the id has ever held: its live version, its
        tombstoned one, or a restored floor (failover: the deposed primary
        assigned numbers a promoted replica never applied) -- so no version
        ever names two contents.
        """
        live = self._versions.get(document_id, 0)
        floor = self._deleted_versions.get(document_id, 0)
        return (live if live > floor else floor) + 1

    def update(self, document_id: str, update: Document) -> Document:
        """Apply a partial update (or replacement) to an existing document.

        :func:`~repro.db.updates.apply_update` builds the new version on a
        fresh copy (the write ingress for updates); the previous snapshot is
        left untouched and becomes the change event's before-image.
        """
        document_id = str(document_id)
        current = self._documents.get(document_id)
        if current is None:
            raise DocumentNotFoundError(f"{self.name}/{document_id} does not exist")
        after = apply_update(current, update)
        after["_id"] = current.get("_id", document_id)
        return self._install(document_id, after, self.next_version(document_id))

    def delete(self, document_id: str) -> Document:
        """Delete a document, returning its final snapshot."""
        document_id = str(document_id)
        if document_id not in self._documents:
            raise DocumentNotFoundError(f"{self.name}/{document_id} does not exist")
        return self._install(document_id, None, 0)

    def install_snapshot(self, document_id: str, snapshot: Document, version: int) -> None:
        """Replication ingress: adopt another store's snapshot by reference.

        ``snapshot`` is a version a primary already installed (a shipped
        after-image or a resync source's stored document), hence immutable:
        it is not copied, and it lands at exactly ``version`` so replica and
        primary agree on which number names which content.
        """
        self._install(str(document_id), snapshot, version)

    # -- queries -----------------------------------------------------------------------

    def find(self, query: Query) -> List[Document]:
        """Execute ``query`` and return the matching stored snapshots.

        Sorting, offset and limit are applied after predicate evaluation, as
        in the paper's MongoDB deployment.  The list and the documents in it
        are shared and read-only (see :meth:`find_versioned`).
        """
        return self.find_versioned(query)[0]

    def find_versioned(self, query: Query) -> Tuple[List[Document], Dict[str, int]]:
        """:meth:`find` and ``{id: version}``, both from one id list: the map's
        keys pair with the documents.

        A covered plan's result is memoised with the stamps of the buckets it
        probed (:class:`~repro.db.indexes.HashIndex`); while they hold, the
        very same list and map come back -- no sort, no copy.
        """
        self.reads += 1
        memo = self._results
        # The compiled plan keys the memo.  It is read off the query's slot:
        # a query that has no plan yet has never run, so it has no entry.
        plan = query._plan
        if plan in memo:
            limit, offset, guards, documents, versions = memo[plan]
            if limit == query.limit and offset == query.offset:
                for stamps, key, stamp in guards:
                    if (stamps[key] if key in stamps else 0) != stamp:
                        break
                else:
                    return documents, versions
        ids, covered = self._candidates(query)
        plan = query._plan  # compiled by _candidates
        ids = window_ids(ids if covered else self._filtered(ids, plan), self._documents, query)
        documents = list(map(self._documents.__getitem__, ids))
        versions = dict(zip(ids, map(self._versions.__getitem__, ids)))
        if covered and plan.index_probes:
            # Guard every probed bucket: (its index's stamps, key, stamp now).
            stamp_tables = self._indexes.stamps
            guards = []
            for field, key in plan.index_probes:
                stamps = stamp_tables[field]
                guards.append((stamps, key, stamps[key] if key in stamps else 0))
            if len(memo) >= RESULT_MEMO_SIZE:
                memo.clear()
            memo[plan] = (query.limit, query.offset, guards, documents, versions)
        return documents, versions

    def ids(self) -> List[str]:
        """All document ids in the collection."""
        return sorted(self._documents)

    # -- version continuity --------------------------------------------------------------

    def version_floors(self) -> Dict[str, int]:
        """Highest version ever associated with every id this collection knows.

        Live documents report their current version, deleted ids their
        tombstoned one -- and when a restored (failover) floor exceeds the
        live version, the floor wins: the floor records numbers a deposed
        primary already issued, and masking it here would let a snapshot
        resync or a later promotion silently drop the protection.  The
        replication layer replays it into a replica's collection via
        :meth:`restore_version_floors`, so versions stay unique per content
        across a failover.
        """
        floors = dict(self._deleted_versions)
        for document_id, version in self._versions.items():
            if version > floors.get(document_id, 0):
                floors[document_id] = version
        return floors

    def restore_version_floors(self, floors: Dict[str, int]) -> None:
        """Continue the version sequences of a predecessor collection.

        Floors apply to deleted ids (re-inserts continue past them) and --
        since failover can leave a live document *behind* a version the old
        primary already issued -- to live ids as well: the next update or
        re-insert skips past the floor (see :meth:`next_version`),
        so a version number never aliases two contents across a promotion.
        Only raises floors, never lowers them; a floor a live version already
        reached says nothing and is not kept.
        """
        for document_id, floor in floors.items():
            if floor >= self.next_version(document_id):
                self._deleted_versions[document_id] = floor

    # -- internals --------------------------------------------------------------------------

    def _candidates(self, query: Query) -> Tuple[abc.Collection[str], bool]:
        """Ids ``query`` could match (index-narrowed, else all), and whether the
        plan is covered -- ``probes_exact`` with every probed field indexed --
        which makes them exactly its matches."""
        if query.collection != self.name:
            raise InvalidQueryError(
                f"query targets {query.collection!r} but was executed on {self.name!r}"
            )
        plan = query.plan
        ids, every_probe_indexed = self._indexes.candidate_ids(plan.index_probes)
        return (self._documents if ids is None else ids), plan.probes_exact and every_probe_indexed

    def _filtered(self, ids: abc.Collection[str], plan) -> List[str]:
        """The ``ids`` whose documents ``plan`` matches."""
        return list(compress(ids, map(plan.matches, map(self._documents.__getitem__, ids))))

    def _install(
        self, document_id: str, snapshot: Optional[Document], version: int
    ) -> Document:
        """The one write seam: make ``snapshot`` the stored version of ``document_id``.

        Every mutation funnels through here.  ``snapshot`` belongs to the
        store from now on and is never mutated again -- it is the object that
        reads return, that the change event carries as its after-image (the
        displaced snapshot is the before-image) and that replicas adopt.
        ``None`` deletes the document.  The change event is built here, once,
        with everything the seam knows (the displaced and installed
        snapshots, the assigned ``version``), so no listener has to look any
        of it up again.  Returns the installed snapshot, or the final one on
        delete.
        """
        previous = self._documents.get(document_id)
        if snapshot is None:
            del self._documents[document_id]
            # Never lower an existing floor: a restored (failover) floor can
            # exceed the live version, and clobbering it would let a later
            # re-insert recycle version numbers the deposed primary issued.
            self._deleted_versions[document_id] = max(
                self._versions.pop(document_id), self._deleted_versions.get(document_id, 0)
            )
            operation = OperationType.DELETE
        else:
            self._documents[document_id] = snapshot
            self._versions[document_id] = version
            if document_id in self._deleted_versions:
                del self._deleted_versions[document_id]
            operation = OperationType.INSERT if previous is None else OperationType.UPDATE
        self._indexes.reindex(document_id, previous, snapshot)
        self.writes += 1
        stream = self._change_stream
        stream.publish(
            ChangeEvent(
                stream.next_sequence(),
                operation,
                self.name,
                document_id,
                previous,
                snapshot,
                self._clock.now(),
                version,
            )
        )
        return previous if snapshot is None else snapshot

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, document_id: str) -> bool:
        return str(document_id) in self._documents

    def __repr__(self) -> str:
        return f"Collection(name={self.name!r}, documents={len(self._documents)})"
