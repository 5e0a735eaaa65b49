"""MongoDB-style update operators (partial updates).

The workloads in the paper issue *partial updates*; the resulting after-image
is what InvaliDB matches against registered queries.  ``apply_update`` takes a
document and an update specification and returns the updated document, leaving
the input untouched.

This module is the write ingress for updates: the new version is built on a
fresh whole-document copy, and every container taken from the (caller-owned)
update specification is copied before it is placed into it, so the result
shares no mutable state with either argument and can be stored as an immutable
snapshot.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.db.documents import (
    Document,
    compare_values,
    deep_copy,
    get_path,
    has_path,
    set_path,
    unset_path,
)
from repro.db.predicates import compile_operators
from repro.errors import InvalidQueryError

MISSING_DEFAULT = object()


def apply_update(document: Document, update: Document) -> Document:
    """Apply ``update`` to a copy of ``document`` and return the new version.

    ``update`` either consists solely of update operators (``$set``, ``$inc``,
    ...) or is a full replacement document (no ``$``-prefixed keys); mixing
    the two forms is rejected, as MongoDB does.
    """
    if not isinstance(update, dict):
        raise InvalidQueryError("update specification must be a document")
    operator_keys = [key for key in update if key[:1] == "$"]
    if operator_keys and len(operator_keys) != len(update):
        raise InvalidQueryError("cannot mix update operators and replacement fields")

    if not operator_keys:
        replacement = deep_copy(update)
        if "_id" in document:
            replacement.setdefault("_id", document["_id"])
        return replacement

    updated = deep_copy(document)
    for operator in operator_keys:
        handler = _UPDATE_HANDLERS.get(operator)
        if handler is None:
            raise InvalidQueryError(f"unsupported update operator: {operator}")
        arguments = update[operator]
        if not isinstance(arguments, dict):
            raise InvalidQueryError(f"{operator} requires a document of field/value pairs")
        for path, operand in arguments.items():
            if path == "_id":
                raise InvalidQueryError("the _id field cannot be modified")
            handler(updated, path, operand)
    return updated


# -- operator implementations ---------------------------------------------------


def _require_number(operator: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidQueryError(f"{operator} requires a numeric operand")
    return value


def _owned(operand: Any) -> Any:
    """The operand as the new version may keep it: containers are the caller's, so copied."""
    return deep_copy(operand) if isinstance(operand, (dict, list)) else operand


def _update_set(document: Document, path: str, operand: Any) -> None:
    set_path(document, path, _owned(operand))


def _update_unset(document: Document, path: str, operand: Any) -> None:
    unset_path(document, path)


def _update_inc(document: Document, path: str, operand: Any) -> None:
    amount = _require_number("$inc", operand)
    current = get_path(document, path, 0)
    _require_number("$inc target", current)
    set_path(document, path, current + amount)


def _update_mul(document: Document, path: str, operand: Any) -> None:
    factor = _require_number("$mul", operand)
    current = get_path(document, path, 0)
    _require_number("$mul target", current)
    set_path(document, path, current * factor)


def _update_min(document: Document, path: str, operand: Any) -> None:
    if not has_path(document, path) or compare_values(operand, get_path(document, path)) < 0:
        set_path(document, path, _owned(operand))


def _update_max(document: Document, path: str, operand: Any) -> None:
    if not has_path(document, path) or compare_values(operand, get_path(document, path)) > 0:
        set_path(document, path, _owned(operand))


def _existing_list(document: Document, path: str, operator: str) -> list:
    current = get_path(document, path, MISSING_DEFAULT)
    if current is MISSING_DEFAULT:
        new_list: list = []
        set_path(document, path, new_list)
        return new_list
    if not isinstance(current, list):
        raise InvalidQueryError(f"{operator} target {path!r} is not an array")
    return current


def _update_push(document: Document, path: str, operand: Any) -> None:
    target = _existing_list(document, path, "$push")
    if isinstance(operand, dict) and "$each" in operand:
        values = operand["$each"]
        if not isinstance(values, list):
            raise InvalidQueryError("$push with $each requires a list")
        target.extend(deep_copy(values))
    else:
        target.append(_owned(operand))


def _update_add_to_set(document: Document, path: str, operand: Any) -> None:
    target = _existing_list(document, path, "$addToSet")
    candidates = (
        operand["$each"]
        if isinstance(operand, dict) and "$each" in operand
        else [operand]
    )
    if not isinstance(candidates, list):
        raise InvalidQueryError("$addToSet with $each requires a list")
    for candidate in candidates:
        if candidate not in target:
            target.append(_owned(candidate))


def _update_pull(document: Document, path: str, operand: Any) -> None:
    current = get_path(document, path, MISSING_DEFAULT)
    if current is MISSING_DEFAULT:
        return
    if not isinstance(current, list):
        raise InvalidQueryError(f"$pull target {path!r} is not an array")
    if isinstance(operand, dict) and any(key.startswith("$") for key in operand):
        removes = compile_operators(operand)
        remaining = [item for item in current if not removes([item])]
    else:
        remaining = [item for item in current if item != operand]
    set_path(document, path, remaining)


def _update_pop(document: Document, path: str, operand: Any) -> None:
    if operand not in (1, -1):
        raise InvalidQueryError("$pop requires 1 (last) or -1 (first)")
    current = get_path(document, path, MISSING_DEFAULT)
    if current is MISSING_DEFAULT:
        return
    if not isinstance(current, list):
        raise InvalidQueryError(f"$pop target {path!r} is not an array")
    if not current:
        return
    if operand == 1:
        current.pop()
    else:
        current.pop(0)


def _update_rename(document: Document, path: str, operand: Any) -> None:
    if not isinstance(operand, str) or not operand:
        raise InvalidQueryError("$rename requires a non-empty target path")
    if not has_path(document, path):
        return
    value = get_path(document, path)
    unset_path(document, path)
    set_path(document, operand, value)


def _update_current_date(document: Document, path: str, operand: Any) -> None:
    # The reproduction is clock-driven; callers that need the simulated time
    # should pass it via $set.  $currentDate stores a marker value so that the
    # operator is still exercised by workloads that use it.
    set_path(document, path, {"$reproCurrentDate": True})


_UPDATE_HANDLERS: Dict[str, Callable[[Document, str, Any], None]] = {
    "$set": _update_set,
    "$unset": _update_unset,
    "$inc": _update_inc,
    "$mul": _update_mul,
    "$min": _update_min,
    "$max": _update_max,
    "$push": _update_push,
    "$addToSet": _update_add_to_set,
    "$pull": _update_pull,
    "$pop": _update_pop,
    "$rename": _update_rename,
    "$currentDate": _update_current_date,
}

#: Update operators understood by :func:`apply_update`.
SUPPORTED_UPDATE_OPERATORS = frozenset(_UPDATE_HANDLERS)
