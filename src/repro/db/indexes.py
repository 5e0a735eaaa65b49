"""Secondary indexes for equality predicates.

A minimal hash-index implementation: it accelerates ``find`` calls whose
filter contains a top-level equality condition on an indexed field.  Index
maintenance happens synchronously on every write, mirroring how a database
would keep secondary indexes consistent with the primary data.
"""

from __future__ import annotations

from itertools import count
from typing import AbstractSet, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.db.documents import MISSING, Document, order_key, split_path
from repro.db.predicates import resolve_values, with_array_elements

_NO_IDS: AbstractSet[str] = frozenset()
_NO_KEYS: Tuple[Hashable, ...] = ()


class HashIndex:
    """Equality index over a single (possibly dotted) field path.

    Each key's *stamp* (:attr:`stamps`) numbers the last install that filed
    a document under it, took one out, or changed one filed there: it holds
    exactly while the bucket's members and their contents do.  An empty
    bucket has none (reads as 0); numbers only grow, so a refilled bucket
    never shows an old stamp.
    """

    def __init__(self, field: str) -> None:
        if not field:
            raise ValueError("index field must not be empty")
        self.field = field
        self._segments = split_path(field)
        #: The field itself when the path is one segment, else ``None``.
        self._top_level = field if len(self._segments) == 1 else None
        self._entries: Dict[Hashable, Set[str]] = {}
        self.stamps: Dict[Hashable, int] = {}
        #: The keys each document is filed under (never recomputed on a move).
        self._filed: Dict[str, Tuple[Hashable, ...]] = {}
        self._installs = 0

    def reindex(
        self, document_id: str, before: Optional[Document], after: Optional[Document]
    ) -> None:
        """Move ``document_id`` from the keys of ``before`` to those of ``after``
        and stamp every key it leaves, stays under or enters.

        ``before`` is ``None`` for an insert, ``after`` for a delete.  An
        update whose snapshots hold the very same value object under the
        path's top-level field (or both lack it) cannot move the document;
        it only stamps the keys the document is filed under.
        """
        self._installs = stamp = self._installs + 1
        stamps = self.stamps
        if before is not None and after is not None:
            head = self._segments[0]
            if before.get(head, MISSING) is after.get(head, MISSING):
                for key in self._filed[document_id]:
                    stamps[key] = stamp
                return
        old = self._filed.pop(document_id, _NO_KEYS)
        new = _NO_KEYS
        if after is not None:
            new = self._filed[document_id] = tuple(self._keys(after))
        entries = self._entries
        for key in old:
            if key not in new:
                bucket = entries[key]
                bucket.discard(document_id)
                if not bucket:
                    del entries[key]
                    del stamps[key]
                    continue
            stamps[key] = stamp
        for key in new:
            if key not in old:
                entries.setdefault(key, set()).add(document_id)
            stamps[key] = stamp

    def file_all(self, documents: Dict[str, Document]) -> None:
        """File new documents in order, as one :meth:`reindex` insert each would."""
        stamp = self._installs
        entries, stamps, filed, keys_of = self._entries, self.stamps, self._filed, self._keys
        for document_id, document in documents.items():
            stamp += 1
            keys = filed[document_id] = tuple(keys_of(document))
            for key in keys:
                bucket = entries.get(key)
                if bucket is None:
                    entries[key] = {document_id}
                else:
                    bucket.add(document_id)
                stamps[key] = stamp
        self._installs = stamp

    def adopt(self, source: "HashIndex", order: Iterable[str]) -> None:
        """Become a copy of ``source``'s buckets, stamped as if this empty index
        had filed ``source``'s documents one by one in ``order``."""
        position = dict(zip(order, count(1)))
        self._entries = {key: set(bucket) for key, bucket in source._entries.items()}
        self._filed = dict(source._filed)
        self.stamps.update(
            {key: max(map(position.__getitem__, bucket)) for key, bucket in self._entries.items()}
        )
        self._installs = len(position)

    def bucket(self, key: Hashable) -> AbstractSet[str]:
        """Live set of the ids whose field equals (or array contains) the keyed value."""
        return self._entries.get(key, _NO_IDS)

    def _keys(self, document: Document) -> Iterable[Hashable]:
        """Every key an equality condition on the field can find ``document`` under.

        Mirrors the matcher: the path fans out over arrays, each value counts
        whole and (multikey) element by element, a missing path as ``None``.
        A top-level number or string -- its class exactly ``int``, ``float``
        or ``str``, so never a ``bool`` -- is its one key, :func:`order_key`'s
        ``(rank, value)`` built here without a call.
        """
        field = self._top_level
        if field is not None and field in document:
            value = document[field]
            cls = value.__class__
            if cls is int or cls is float:
                return ((1, value),)
            if cls is str:
                return ((2, value),)
        values = with_array_elements(resolve_values(document, self._segments))
        return set(map(order_key, values)) if values else {order_key(None)}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())

    def __repr__(self) -> str:
        return f"HashIndex(field={self.field!r}, distinct_values={len(self._entries)})"


class IndexSet:
    """The collection of secondary indexes attached to one collection."""

    def __init__(self) -> None:
        self._indexes: Dict[str, HashIndex] = {}
        #: Per indexed field, its index's key stamps (:attr:`HashIndex.stamps`).
        self.stamps: Dict[str, Dict[Hashable, int]] = {}

    def create(self, field: str) -> HashIndex:
        """Create (or return the existing) index on ``field``."""
        index = self._indexes.get(field)
        if index is None:
            index = HashIndex(field)
            self._indexes[field] = index
            self.stamps[field] = index.stamps
        return index

    def fields(self) -> List[str]:
        return sorted(self._indexes)

    def reindex(
        self, document_id: str, before: Optional[Document], after: Optional[Document]
    ) -> None:
        """Keep every index in step with one write (see :meth:`HashIndex.reindex`)."""
        for index in self._indexes.values():
            index.reindex(document_id, before, after)

    def file_all(self, documents: Dict[str, Document]) -> None:
        """Keep every index in step with a batch of inserts (:meth:`HashIndex.file_all`)."""
        for index in self._indexes.values():
            index.file_all(documents)

    def adopt(self, source: "IndexSet", order: Iterable[str]) -> None:
        """Adopt the buckets of ``source``'s index on each of these (empty)
        indexes' fields, stamped for documents installed in ``order``
        (:meth:`HashIndex.adopt`)."""
        for field, index in self._indexes.items():
            index.adopt(source._indexes[field], order)

    def candidate_ids(
        self, probes: Iterable[Tuple[str, Hashable]]
    ) -> Tuple[Optional[AbstractSet[str]], bool]:
        """Candidate ids for a plan's ``index_probes`` (read-only; ``None``: scan
        them all), and whether every probed field is indexed."""
        candidates: Optional[AbstractSet[str]] = None
        every_probe_indexed = True
        for field, key in probes:
            index = self._indexes.get(field)
            if index is None:
                every_probe_indexed = False
            else:
                matched = index.bucket(key)
                candidates = matched if candidates is None else candidates & matched
        return candidates, every_probe_indexed
