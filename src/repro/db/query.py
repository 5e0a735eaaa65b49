"""Query objects: normalisation, validation and cache-key derivation.

A query in Quaestor is an arbitrary boolean expression of predicates over the
documents of a single table, optionally with ``ORDER BY``/``LIMIT``/``OFFSET``
clauses.  Queries are posed as HTTP GET requests, so every query needs a
*normalised*, canonical string form that doubles as its cache key (URL) and as
the key hashed into the Expiring Bloom Filter.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Callable, Collection, DefaultDict, Dict, Hashable, Iterable, List, Mapping
from typing import NamedTuple, Optional, Sequence, Tuple

from repro.db.documents import Document, compile_sort_key, order_key
from repro.db.predicates import SUPPORTED_OPERATORS, Matcher, compile_criteria
from repro.errors import InvalidQueryError, UnsupportedOperationError

_UNSUPPORTED_OPERATORS = {"$lookup", "$group", "$unwind", "$graphLookup", "$facet"}


class QueryPlan(NamedTuple):
    """Everything executing a query needs, compiled once from its criteria and sort."""

    #: The compiled predicate (:func:`~repro.db.predicates.compile_criteria`).
    matches: Matcher
    #: The canonical total result order (:func:`~repro.db.documents.compile_sort_key`).
    sort_key: Callable[[Document], Any]
    #: ``(field, order key)`` per top-level equality condition: what an
    #: :class:`~repro.db.indexes.IndexSet` looks up to narrow the candidates.
    index_probes: Tuple[Tuple[str, Hashable], ...]
    #: Whether every criterion is a probe and no operand a NaN: with the probed
    #: fields indexed, the plan is *covered* -- its bucket is the match set.
    probes_exact: bool


def _equality_probes(criteria: Document) -> Tuple[Tuple[Tuple[str, Hashable], ...], bool]:
    """Top-level equalities as index keys, and whether they are the whole predicate.

    A bucket holds a value exactly when the matcher's equality does, except
    a NaN: the bucket finds the very object by identity, ``==`` never does.
    """
    operands = {}
    for field, condition in criteria.items():
        if isinstance(condition, dict):
            if set(condition) != {"$eq"}:
                continue
            condition = condition["$eq"]
        if not field.startswith("$"):
            operands[field] = condition
    exact = len(operands) == len(criteria) and all(value == value for value in operands.values())
    return tuple((field, order_key(value)) for field, value in operands.items()), exact


class Query:
    """An immutable, normalised single-table query.

    Parameters
    ----------
    collection:
        Name of the table the query runs against.
    criteria:
        MongoDB-style filter document (may be empty to select all documents).
    sort:
        Optional sequence of ``(field, direction)`` pairs; direction is ``1``
        or ``-1``.
    limit, offset:
        Optional result window.  Their presence makes the query *stateful*
        from InvaliDB's point of view (Section 4.1, "Managing Query State").
    """

    __slots__ = ("collection", "criteria", "sort", "limit", "offset", "_cache_key", "_plan")

    def __init__(
        self,
        collection: str,
        criteria: Optional[Document] = None,
        sort: Optional[Sequence[Tuple[str, int]]] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> None:
        if not collection:
            raise InvalidQueryError("query requires a collection name")
        if limit is not None and limit <= 0:
            raise InvalidQueryError("limit must be positive when given")
        if offset < 0:
            raise InvalidQueryError("offset must be non-negative")
        normalized_sort = tuple((field, int(direction)) for field, direction in (sort or ()))
        for field, direction in normalized_sort:
            if direction not in (1, -1):
                raise InvalidQueryError(f"sort direction must be 1 or -1, got {direction}")
            if not field:
                raise InvalidQueryError("sort field must not be empty")
        criteria = dict(criteria or {})
        _validate_criteria(criteria)
        object.__setattr__(self, "collection", collection)
        object.__setattr__(self, "criteria", criteria)
        object.__setattr__(self, "sort", normalized_sort)
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "offset", int(offset))
        object.__setattr__(self, "_cache_key", None)
        object.__setattr__(self, "_plan", None)

    def __setattr__(self, name: str, value: Any) -> None:  # pragma: no cover - guard
        raise AttributeError("Query objects are immutable")

    def __getstate__(self) -> Dict[str, Any]:
        # Default slot pickling restores via setattr, which the immutability
        # guard rejects; explicit state keeps queries picklable and copyable
        # (a job mapped to a worker process may carry them).  The plan is
        # closures, which do not pickle: a copy recompiles on use.
        return {slot: getattr(self, slot) for slot in self.__slots__ if slot != "_plan"}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)
        object.__setattr__(self, "_plan", None)

    # -- execution -----------------------------------------------------------------

    @property
    def plan(self) -> QueryPlan:
        """The compiled plan, built on first use (a malformed filter raises here)."""
        plan = self._plan
        if plan is None:
            plan = QueryPlan(
                compile_criteria(self.criteria),
                compile_sort_key(self.sort),
                *_equality_probes(self.criteria),
            )
            object.__setattr__(self, "_plan", plan)
        return plan

    @property
    def is_stateful(self) -> bool:
        """True when the query carries ORDER BY / LIMIT / OFFSET clauses.

        Stateful queries require InvaliDB to track result ordering and window
        membership rather than per-record match status alone.
        """
        return bool(self.sort) or self.limit is not None or self.offset > 0

    # -- normalisation ----------------------------------------------------------------

    @property
    def cache_key(self) -> str:
        """Canonical string form used as cache URL and EBF key."""
        key = self._cache_key
        if key is None:
            key = self._normalize()
            object.__setattr__(self, "_cache_key", key)
        return key

    def _normalize(self) -> str:
        payload = {
            "c": self.collection,
            "q": _canonical(self.criteria),
            "s": [[field, direction] for field, direction in self.sort],
            "l": self.limit,
            "o": self.offset,
        }
        return "query:" + json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def aliased(self, cache_key: str) -> "Query":
        """Copy of this query that reports ``cache_key`` as its canonical key.

        Cluster integration point: a shard serves the *scatter window* of a
        client query (``limit + offset`` candidates, no offset) but must
        register it in InvaliDB under the original query's cache key, so that
        notifications invalidate the merged cached result.
        """
        copy = Query(
            self.collection,
            self.criteria,
            sort=self.sort,
            limit=self.limit,
            offset=self.offset,
        )
        object.__setattr__(copy, "_cache_key", cache_key)
        object.__setattr__(copy, "_plan", self._plan)
        return copy

    # -- dunder methods --------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return self.cache_key == other.cache_key

    def __hash__(self) -> int:
        return hash(self.cache_key)

    def __repr__(self) -> str:
        clauses = [f"collection={self.collection!r}", f"criteria={self.criteria!r}"]
        if self.sort:
            clauses.append(f"sort={list(self.sort)!r}")
        if self.limit is not None:
            clauses.append(f"limit={self.limit}")
        if self.offset:
            clauses.append(f"offset={self.offset}")
        return "Query(" + ", ".join(clauses) + ")"


#: ``collection -> document id -> record key``: every holder of a record's
#: key (caches, the EBF, the TTL sampler, the auditor) shares one string.
#: Emptied when a :class:`~repro.simulation.Simulator` is built and when its
#: run has collected its result.
RECORD_KEYS: DefaultDict[str, Dict[str, str]] = defaultdict(dict)

#: Keys one collection's memo holds before it starts over.
RECORD_KEY_MEMO_SIZE = 1 << 16


def record_key(collection: str, document_id: str) -> str:
    """Canonical EBF / cache key for an individual record (ids are strings)."""
    keys = RECORD_KEYS[collection]
    try:
        return keys[document_id]
    except KeyError:
        if len(keys) >= RECORD_KEY_MEMO_SIZE:
            keys.clear()
        key = keys[document_id] = f"record:{collection}/{document_id}"
        return key


def window_ids(ids: Collection[str], documents: Mapping[str, Document], query: Query) -> List[str]:
    """The ids of ``query``'s result window among ``ids`` (keys of ``documents``).

    Ids are ``str(_id)``, the whole order when there is no sort spec: they
    sort in C.  Collections, the gather merge and subscriptions all cut with
    it, so they agree by construction (:func:`~repro.db.documents.compile_sort_key`).
    """
    end = None if query.limit is None else query.offset + query.limit
    if not query.sort:
        return sorted(ids)[query.offset : end]
    sort_keys = dict(zip(ids, map(query.plan.sort_key, map(documents.__getitem__, ids))))
    return sorted(sort_keys, key=sort_keys.__getitem__)[query.offset : end]


def _canonical(value: Any) -> Any:
    """Recursively order dictionary keys so equivalent filters normalise equally."""
    if isinstance(value, dict):
        return {key: _canonical(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [_canonical(item) for item in value]
    return value


def _validate_criteria(criteria: Document) -> None:
    """Reject unknown or explicitly unsupported operators up front."""
    for operator in _iter_operators(criteria):
        if operator in _UNSUPPORTED_OPERATORS:
            raise UnsupportedOperationError(
                f"{operator} requires joins/aggregations, which InvaliDB does not support"
            )
        if operator not in SUPPORTED_OPERATORS and operator not in ("$each",):
            raise InvalidQueryError(f"unsupported query operator: {operator}")


def _iter_operators(node: Any) -> Iterable[str]:
    if isinstance(node, dict):
        for key, value in node.items():
            if key.startswith("$"):
                yield key
            yield from _iter_operators(value)
    elif isinstance(node, list):
        for item in node:
            yield from _iter_operators(item)
