"""Document representation and dotted-path field access.

Documents are plain dictionaries (JSON-like: str keys, values of scalars,
lists and nested dictionaries).  MongoDB-style dotted paths such as
``"author.name"`` or ``"comments.0.text"`` address nested fields and array
elements; the helpers here implement that addressing for both the predicate
matcher and the update operators.
"""

from __future__ import annotations

import copy
from functools import lru_cache
from typing import Any, Dict, List, Sequence, Tuple

#: Type alias used throughout the database layer.
Document = Dict[str, Any]

#: Sentinel distinguishing "field missing" from "field is None".
MISSING = object()


def _copy_value(value: Any) -> Any:
    """Structural copy specialised for JSON-like values.

    ``copy.deepcopy`` pays for memoization and cycle detection that plain
    JSON documents never need.  Exact-type checks keep any exotic value
    (subclasses, tuples, custom objects) on the general ``copy.deepcopy``
    path, so only the shapes we understand take the shortcut.
    """
    cls = value.__class__
    if cls is dict:
        return {key: _copy_value(item) for key, item in value.items()}
    if cls is list:
        return [_copy_value(item) for item in value]
    if cls is str or cls is int or cls is float or cls is bool or value is None:
        return value
    return copy.deepcopy(value)


def deep_copy(document: Document) -> Document:
    """Return an independent deep copy of ``document``.

    The stack's one copy primitive, called only at write ingress
    (:meth:`Collection.insert <repro.db.collection.Collection.insert>` and
    the update operators): a stored document version is immutable and shared
    by reference everywhere downstream, so nothing else copies.  Whoever
    wants to edit a document they were handed copies it with this first.
    The recursion lives in :func:`_copy_value`, so one call here is one
    document copied -- the unit the benchmark's ``db.deep_copy`` span counts.
    """
    return _copy_value(document)


@lru_cache(maxsize=4096)
def split_path(path: str) -> Tuple[str, ...]:
    """Split a dotted path into its segments, validating syntax.

    Memoised: predicate matching resolves the same few paths against every
    candidate document.  The result is a tuple, so no caller can corrupt the
    cached value (errors are not cached and raise every time).
    """
    if not path:
        raise ValueError("field path must not be empty")
    segments = tuple(path.split("."))
    if "" in segments:
        raise ValueError(f"malformed field path: {path!r}")
    return segments


def get_path(document: Document, path: str, default: Any = None) -> Any:
    """Fetch the value at ``path``, returning ``default`` when absent."""
    value = _resolve(document, split_path(path))
    return default if value is MISSING else value


def has_path(document: Document, path: str) -> bool:
    """Return whether the dotted ``path`` resolves to an existing field."""
    return _resolve(document, split_path(path)) is not MISSING


def _resolve(node: Any, segments: Sequence[str]) -> Any:
    """Walk ``segments`` starting at ``node``; returns MISSING when absent."""
    current = node
    for segment in segments:
        if isinstance(current, dict):
            if segment not in current:
                return MISSING
            current = current[segment]
        elif isinstance(current, list):
            if not segment.isdigit():
                return MISSING
            index = int(segment)
            if index >= len(current):
                return MISSING
            current = current[index]
        else:
            return MISSING
    return current


def set_path(document: Document, path: str, value: Any) -> None:
    """Set ``path`` to ``value``, creating intermediate dictionaries as needed."""
    segments = split_path(path)
    parent = _descend_for_write(document, segments[:-1])
    leaf = segments[-1]
    if isinstance(parent, list):
        if not leaf.isdigit():
            raise ValueError(f"cannot index list with non-numeric segment {leaf!r}")
        index = int(leaf)
        while len(parent) <= index:
            parent.append(None)
        parent[index] = value
    else:
        parent[leaf] = value


def unset_path(document: Document, path: str) -> bool:
    """Remove the field at ``path``; returns whether it existed."""
    segments = split_path(path)
    parent = _resolve(document, segments[:-1]) if len(segments) > 1 else document
    if parent is MISSING:
        return False
    leaf = segments[-1]
    if isinstance(parent, dict) and leaf in parent:
        del parent[leaf]
        return True
    if isinstance(parent, list) and leaf.isdigit() and int(leaf) < len(parent):
        # MongoDB sets array slots to None on $unset rather than shifting.
        parent[int(leaf)] = None
        return True
    return False


def _descend_for_write(document: Document, segments: Sequence[str]) -> Any:
    current: Any = document
    for segment in segments:
        if isinstance(current, list):
            if not segment.isdigit():
                raise ValueError(f"cannot index list with non-numeric segment {segment!r}")
            index = int(segment)
            while len(current) <= index:
                current.append({})
            if current[index] is None:
                current[index] = {}
            current = current[index]
        elif isinstance(current, dict):
            if segment not in current or not isinstance(current[segment], (dict, list)):
                current[segment] = {}
            current = current[segment]
        else:
            raise ValueError(f"cannot descend into scalar at segment {segment!r}")
    return current


_TYPE_ORDER = {
    "null": 0,
    "number": 1,
    "string": 2,
    "document": 3,
    "array": 4,
    "boolean": 5,
}


def bson_type(value: Any) -> str:
    """Classify ``value`` into the coarse type classes used for ordering."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, dict):
        return "document"
    if isinstance(value, list):
        return "array"
    return "string"


def compare_values(left: Any, right: Any) -> int:
    """Total order over document values (MongoDB-style cross-type ordering).

    Values of different type classes order by the class; values of the same
    class order naturally.  Returns -1, 0 or 1.
    """
    left_type, right_type = bson_type(left), bson_type(right)
    if left_type != right_type:
        return -1 if _TYPE_ORDER[left_type] < _TYPE_ORDER[right_type] else 1
    if left_type == "null":
        return 0
    if left_type == "array":
        return _compare_sequences(left, right)
    if left_type == "document":
        return _compare_sequences(sorted(left.items()), sorted(right.items()))
    if left == right:
        return 0
    return -1 if left < right else 1


def _compare_sequences(left: Any, right: Any) -> int:
    for left_item, right_item in zip(left, right):
        if isinstance(left_item, tuple) and isinstance(right_item, tuple):
            key_cmp = compare_values(left_item[0], right_item[0])
            if key_cmp != 0:
                return key_cmp
            value_cmp = compare_values(left_item[1], right_item[1])
            if value_cmp != 0:
                return value_cmp
        else:
            item_cmp = compare_values(left_item, right_item)
            if item_cmp != 0:
                return item_cmp
    if len(left) == len(right):
        return 0
    return -1 if len(left) < len(right) else 1


class _Wrapped:
    """A sort-spec-aware comparison wrapper for one field value.

    Defined at module level so wrappers produced by *different*
    :func:`sort_key` calls compare equal on ties -- a prerequisite for tuple
    keys to fall through to a tiebreaker element.
    """

    __slots__ = ("value", "direction")

    def __init__(self, value: Any, direction: int) -> None:
        self.value = value
        self.direction = direction

    def __lt__(self, other: "_Wrapped") -> bool:
        return compare_values(self.value, other.value) * self.direction < 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Wrapped):
            return NotImplemented
        return compare_values(self.value, other.value) == 0


def sort_key(document: Document, spec: List[Tuple[str, int]]) -> Tuple:
    """Build a comparable key for sorting ``document`` by ``spec``.

    ``spec`` is a list of ``(field, direction)`` pairs with direction ``1``
    (ascending) or ``-1`` (descending).
    """
    return tuple(
        _Wrapped(get_path(document, field), direction) for field, direction in spec
    )


def total_sort_key(document: Document, spec: Sequence[Tuple[str, int]]) -> Tuple:
    """A *total* order key: ``spec`` (possibly empty) with an ``_id`` tiebreak.

    This is the one canonical result ordering.  Collections, the cluster's
    scatter/gather merge and InvaliDB's stateful window maintenance must all
    sort with this same key -- if any of them ordered tied documents
    differently, served windows and invalidation windows would diverge and
    tied-sort window changes could go un-invalidated.
    """
    return (sort_key(document, list(spec)), str(document.get("_id", "")))
