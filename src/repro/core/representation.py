"""Query result representations and the cost-based choice between them.

A cached query result can be served either as an **id-list** (only the record
URLs/ids; space-efficient, per-record cache hits, but more round-trips to
assemble the result) or as an **object-list** (the full documents in one
response).  The choice cannot be made by the cache, so Quaestor decides per
query using a cost model that weighs fewer invalidations (id-lists ignore pure
``change`` events) against fewer round-trips (object-lists need exactly one).
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Tuple

from repro.rest.etags import etag_for_result

#: Cache keys one :class:`ResultTagMemo` holds before it starts over.
RESULT_TAG_MEMO_SIZE = 1 << 14


class ResultRepresentation(str, enum.Enum):
    """How a cached query result is materialised."""

    ID_LIST = "id-list"
    OBJECT_LIST = "object-list"


#: The wire text of each representation (``.value`` is a property call).
_OBJECT_LIST = ResultRepresentation.OBJECT_LIST.value
_ID_LIST = ResultRepresentation.ID_LIST.value


class ResultTagMemo(Dict[str, Tuple[Dict[str, int], str]]):
    """One owner's last ``(versions, tag)`` per cache key: an equal map reuses the tag.

    Owners pass only maps a :class:`~repro.db.collection.Collection` built from
    ``int`` versions (dict equality takes ``1``, ``1.0`` and ``True`` for one
    another, so :func:`etag_for_result` stays unmemoised); a map handed in is
    kept and must not change.  The very map seen last -- what a collection's
    result memo hands out again -- is taken without comparing it.  Emptied at
    :data:`RESULT_TAG_MEMO_SIZE` keys.
    """

    def tag(self, key: str, versions: Dict[str, int]) -> str:
        last = self.get(key)
        if last is not None and (last[0] is versions or last[0] == versions):
            return last[1]
        etag = etag_for_result(versions)
        if len(self) >= RESULT_TAG_MEMO_SIZE:
            self.clear()
        self[key] = (versions, etag)
        return etag


def object_list_body(
    documents: List[Dict[str, Any]], versions: Dict[str, int], record_ttl: float
) -> Dict[str, Any]:
    """The wire body of an object-list query response.

    One shared builder: the single server and the cluster's scatter/gather
    merge both emit this shape, and the client SDK reads it -- a field added
    here is immediately consistent everywhere.  ``versions`` comes from the
    same id list as ``documents`` (``Collection.find_versioned``, the merge):
    its keys are the id list.
    """
    return {
        "representation": _OBJECT_LIST,
        "ids": list(versions),
        "documents": documents,
        "record_versions": versions,
        "record_ttl": record_ttl,
    }


def query_result_body(
    documents: List[Dict[str, Any]],
    versions: Dict[str, int],
    representation: "ResultRepresentation",
    record_ttl: float,
) -> Dict[str, Any]:
    """The wire body of a query result in its chosen representation.

    Object-lists carry the documents (client-cacheable for ``record_ttl``);
    id-lists carry only the ids.  Shared by the single-server read pipeline
    and the cluster's scatter/gather merge, so the two emit identical bodies.
    """
    if representation is ResultRepresentation.OBJECT_LIST:
        return object_list_body(documents, versions, record_ttl=record_ttl)
    return {
        "representation": _ID_LIST,
        "ids": list(versions),
    }


def choose_representation(
    result_size: int,
    assumed_record_hit_rate: float,
    object_list_max_size: int,
    change_fraction: float = 0.5,
) -> ResultRepresentation:
    """Pick the cheaper representation for a query result.

    Parameters
    ----------
    result_size:
        Number of records in the result.
    assumed_record_hit_rate:
        Probability that an individual record needed to assemble an id-list
        result is already cached client-side (records are cached as a side
        effect of object-list responses and record reads).
    object_list_max_size:
        Hard cap above which results are always served as id-lists (very large
        object-lists are expensive to transfer and to invalidate).
    change_fraction:
        Fraction of invalidations that are pure ``change`` events (those do
        not invalidate id-lists).  The default of one half reflects the
        workload generator's update mix.

    Notes
    -----
    The cost of a representation is expressed in expected round-trips per read
    plus an invalidation penalty:

    * object-list: ``1`` round-trip, invalidated by *every* notification.
    * id-list: ``1 + result_size * (1 - hit_rate)`` round-trips, invalidated
      only by membership/order changes (``1 - change_fraction`` of events).
    """
    if result_size < 0:
        raise ValueError("result_size must be non-negative")
    if not 0.0 <= assumed_record_hit_rate <= 1.0:
        raise ValueError("assumed_record_hit_rate must lie in [0, 1]")
    if not 0.0 <= change_fraction <= 1.0:
        raise ValueError("change_fraction must lie in [0, 1]")

    if result_size > object_list_max_size:
        return ResultRepresentation.ID_LIST

    # Invalidations are weighted as one extra (origin) round-trip each because
    # the next read after an invalidation misses all caches.
    object_list_cost = 1.0 + 1.0
    id_list_cost = (
        1.0
        + result_size * (1.0 - assumed_record_hit_rate)
        + (1.0 - change_fraction)
    )
    if id_list_cost < object_list_cost:
        return ResultRepresentation.ID_LIST
    return ResultRepresentation.OBJECT_LIST
