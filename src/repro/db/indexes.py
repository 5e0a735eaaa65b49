"""Secondary indexes for equality predicates.

A minimal hash-index implementation: it accelerates ``find`` calls whose
filter contains a top-level equality condition on an indexed field.  Index
maintenance happens synchronously on every write, mirroring how a database
would keep secondary indexes consistent with the primary data.
"""

from __future__ import annotations

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

    def bucket(self, key: Hashable) -> AbstractSet[str]:
        """Live set of the ids whose field equals (or array contains) the keyed value."""
        return self._entries.get(key, _NO_IDS)

    def _keys(self, document: Document) -> Set[Hashable]:
        """Every key an equality condition on the field can find ``document`` under.

        Mirrors the matcher: the path fans out over arrays, each value counts
        whole and (multikey) element by element, a missing path as ``None``.
        """
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
