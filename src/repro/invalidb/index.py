"""Candidate index over registered query states.

``InvaliDBNode.process`` used to evaluate every registered
:class:`~repro.invalidb.matching.QueryMatchState` against every change event;
each state then discarded events for foreign collections itself.  At a
thousand registered queries that is a thousand Python calls per event for a
handful of actual matches.  :class:`QueryStateIndex` prunes the fan-out the
same way the paper's cascade principle prunes expensive predicates with cheap
filters: a per-collection index narrows an event to the states that could
possibly react, and a per-attribute-value index narrows further for queries
with equality predicates.

Correctness invariant: :meth:`QueryStateIndex.candidates` must return a
*superset* of the states whose ``process(event)`` would emit a notification,
in the exact order a full scan over every registered state would visit them
-- the notification stream stays byte-for-byte identical (each state still
performs its own full predicate evaluation).  The superset argument for the
equality index:

* A state is indexed under ``(collection, field) -> value`` only when
  ``field == value`` is a *necessary* condition of its predicate (a top-level
  equality criterion; top-level criteria are conjunctive).
* An event can produce a notification only if its after-image matches now
  (ADD/CHANGE) or its document matched before (REMOVE/DELETE).  In the first
  case the after-image carries ``value`` under ``field`` (directly or as an
  array element); in the second case the before-image does, because the
  document's last processed image matched the predicate.

Fields whose equality value is unhashable, ``None`` (matches missing fields),
or NaN, and predicates on dotted paths, are never indexed -- such states stay
in the per-collection scan bucket, which is always consulted.

The superset argument assumes the change-stream contract the repository's
:class:`~repro.db.changestream.ChangeStream` provides: every event's
``before`` image is the last image delivered for that document, and ``None``
exactly when the document is new to the stream (INSERT).  An at-least-once
transport that redelivers INSERT events for already-tracked documents breaks
that assumption for *both* the index and a full scan (the scan would then
emit notifications from a stale matching set); such transports must
deduplicate on ``event.sequence`` before ingestion.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.db.changestream import ChangeEvent, OperationType
from repro.db.query import Query
from repro.invalidb.matching import QueryMatchState

#: Sentinel distinguishing "field absent" from "field is None".
_MISSING = object()


def equality_predicate(query: Query) -> Optional[Tuple[str, Any]]:
    """The ``(field, value)`` equality condition to index ``query`` under.

    Returns the first (in sorted field order, for determinism) top-level
    criterion of the form ``{field: scalar}`` or ``{field: {"$eq": scalar}}``
    whose value is safely indexable, or ``None`` when the query has no such
    condition.  Only *necessary* conditions qualify: top-level criteria are
    ANDed, so any one of them may serve as the index key.
    """
    for field in sorted(query.criteria):
        if field.startswith("$") or "." in field:
            continue
        condition = query.criteria[field]
        if isinstance(condition, dict):
            if "$eq" not in condition:
                continue
            value = condition["$eq"]
        else:
            value = condition
        if _indexable_value(value):
            return field, value
    return None


def _indexable_value(value: Any) -> bool:
    """Whether ``value`` can serve as an exact-lookup index key.

    ``None`` also matches *missing* fields and NaN compares unequal to
    itself, so both would break the superset invariant; containers are
    unhashable or carry whole-array equality semantics.
    """
    if isinstance(value, bool) or isinstance(value, (str, int)):
        return True
    return isinstance(value, float) and not math.isnan(value)


class QueryStateIndex:
    """Registration-ordered registry of query states with candidate pruning.

    Maintains the same mapping the old ``Dict[str, QueryMatchState]`` held,
    plus two secondary structures kept in sync on register:

    * ``collection -> states`` for queries without an indexable equality
      predicate (always scanned for events of that collection), and
    * ``collection -> field -> value -> states`` for queries with one.
    """

    def __init__(self) -> None:
        self._states: Dict[str, QueryMatchState] = {}
        self._order: Dict[str, int] = {}
        self._next_order = 0
        #: collection -> {query_key: state} for non-equality-indexable queries.
        self._scan_bucket: Dict[str, Dict[str, QueryMatchState]] = {}
        #: collection -> field -> value -> {query_key: state}.
        self._eq_index: Dict[str, Dict[str, Dict[Any, Dict[str, QueryMatchState]]]] = {}
        #: query_key -> (collection, field, value) placement for re-registration.
        self._placement: Dict[str, Tuple[str, Optional[str], Any]] = {}

    # -- registry ------------------------------------------------------------------

    def register(self, query: Query, state: QueryMatchState) -> None:
        """Install ``state`` under ``query``'s cache key, indexing its predicate.

        Re-registering an existing key replaces the state in place (keeping
        its original scan position, like plain dict assignment did).
        """
        key = query.cache_key
        if key in self._states:
            # Same cache key means same collection and criteria (aliased
            # queries share the original's criteria), hence the same index
            # placement: overwrite in place, preserving scan order exactly
            # like plain dict assignment did.
            self._states[key] = state
            collection, field, value = self._placement[key]
            if field is None:
                self._scan_bucket[collection][key] = state
            else:
                self._eq_index[collection][field][value][key] = state
            return
        self._states[key] = state
        self._order[key] = self._next_order
        self._next_order += 1
        collection = query.collection
        predicate = equality_predicate(query)
        if predicate is None:
            self._scan_bucket.setdefault(collection, {})[key] = state
            self._placement[key] = (collection, None, None)
        else:
            field, value = predicate
            by_field = self._eq_index.setdefault(collection, {})
            by_field.setdefault(field, {}).setdefault(value, {})[key] = state
            self._placement[key] = (collection, field, value)

    def __contains__(self, query_key: str) -> bool:
        return query_key in self._states

    def __len__(self) -> int:
        return len(self._states)

    # -- candidate pruning ----------------------------------------------------------

    def candidates(self, event: ChangeEvent) -> List[QueryMatchState]:
        """The states that could possibly emit a notification for ``event``.

        Returned in registration order -- the order a full scan over every
        registered state evaluates them in -- so downstream notification
        streams are unchanged.
        """
        collection = event.collection
        scan = self._scan_bucket.get(collection)
        by_field = self._eq_index.get(collection)
        if not by_field:
            # Bucket dicts preserve registration order among themselves.
            return list(scan.values()) if scan else []
        before = event.before
        after = event.after
        if before is None and event.operation is not OperationType.INSERT:
            # Defensive: without a before-image the equality index cannot
            # prove which previously matching states are affected.  Fall back
            # to every state of the collection (never happens with the
            # repo's change stream, which always carries before-images).
            # _states is insertion-ordered and holds scan-bucket and
            # eq-indexed states alike, so one ordered filter already yields
            # the full-scan candidate list in registration order.
            return [
                state
                for state in self._states.values()
                if state.query.collection == collection
            ]

        # Each image contributes its field value as a lookup key; an array
        # fans out over its elements (MongoDB's "array contains" equality).
        # A value both images share by reference is looked up once.
        eq_found: Dict[str, QueryMatchState] = {}
        for field in by_field:
            by_value = by_field[field]
            old = before.get(field, _MISSING) if before is not None else _MISSING
            new = after.get(field, _MISSING) if after is not None else _MISSING
            for value in (old,) if new is old else (old, new):
                if value is _MISSING:
                    continue
                for element in value if isinstance(value, list) else (value,):
                    try:
                        bucket = by_value.get(element)
                    except TypeError:
                        continue  # unhashable (nested document or array): never a key
                    if bucket:
                        eq_found.update(bucket)
        scan_states = list(scan.values()) if scan else []
        if not eq_found:
            return scan_states
        order = self._order
        # Equality hits are few; sort only those and merge with the (already
        # registration-ordered) scan bucket instead of sorting everything.
        eq_states = [eq_found[key] for key in sorted(eq_found, key=order.__getitem__)]
        if not scan_states:
            return eq_states
        merged: List[QueryMatchState] = []
        append = merged.append
        position = 0
        total = len(scan_states)
        for state in eq_states:
            rank = order[state.query_key]
            while position < total and order[scan_states[position].query_key] < rank:
                append(scan_states[position])
                position += 1
            append(state)
        merged.extend(scan_states[position:])
        return merged
