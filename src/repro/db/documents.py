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
from typing import Any, Callable, Dict, Sequence, Tuple

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


def order_key(value: Any) -> Tuple:
    """The canonical comparable, hashable stand-in for a document value.

    The one definition of how values relate (MongoDB-style: type classes
    order null < number < string < document < array < boolean, values of one
    class order naturally, ``1`` and ``1.0`` are the same number and ``True``
    is not).  Keys compare with ``<`` for sorting and range operators, with
    ``==`` for equality matching, and hash for the secondary indexes -- all
    inside the interpreter's tuple machinery, no Python call per comparison.
    """
    cls = value.__class__
    if cls is int or cls is float:
        return (1, value)
    if cls is str:
        return (2, value)
    if value is None:
        return (0,)
    kind = bson_type(value)
    if kind == "array":
        return (4, tuple(order_key(item) for item in value))
    if kind == "document":
        return (3, tuple((key, order_key(item)) for key, item in sorted(value.items())))
    return (_TYPE_ORDER[kind], value)


def compare_values(left: Any, right: Any) -> int:
    """Total order over document values, as -1, 0 or 1 (see :func:`order_key`)."""
    left_key, right_key = order_key(left), order_key(right)
    return (left_key > right_key) - (left_key < right_key)


class _Descending(tuple):
    """An order key that sorts the other way round (for ``direction == -1``)."""

    __slots__ = ()

    def __lt__(self, other: tuple) -> bool:
        return tuple.__lt__(other, self)


def compile_sort_key(spec: Sequence[Tuple[str, int]]) -> Callable[[Document], Any]:
    """Compile a sort spec into the key function of the one canonical result order.

    ``spec`` holds ``(field, direction)`` pairs, direction ``1`` or ``-1``;
    ties -- and, with an empty spec, everything -- order by stringified
    ``_id``, so the order is *total*.  InvaliDB's stateful windows sort with
    this key and :func:`~repro.db.query.window_ids` (collections, the gather
    merge) with it or, for an empty spec, with the ids themselves: ordering
    tied documents differently anywhere would let served and invalidation
    windows diverge and changes go un-invalidated.
    """
    parts = [(split_path(field), direction < 0) for field, direction in spec]

    def sort_key(document: Document) -> Tuple:
        key = []
        for segments, descending in parts:
            value = _resolve(document, segments)
            part = order_key(None if value is MISSING else value)
            key.append(_Descending(part) if descending else part)
        key.append(str(document.get("_id", "")))
        return tuple(key)

    return sort_key
