"""The predicate *interpreter* as it stood before PR 14, frozen as a test oracle.

``repro.db.predicates`` now compiles a filter document into a closure tree and
``repro.db.documents.order_key`` defines value order and equality; this file is
the old evaluate-per-document implementation together with the old
``compare_values``, kept verbatim so a differential test can assert
``compiled == interpreted`` for generated criteria and documents.  Test-only:
nothing under ``src/`` imports it.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Sequence

from repro.db.documents import Document, split_path
from repro.errors import InvalidQueryError

_TYPE_ORDER = {"null": 0, "number": 1, "string": 2, "document": 3, "array": 4, "boolean": 5}


def bson_type(value: Any) -> str:
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


_LOGICAL_OPERATORS = {"$and", "$or", "$nor", "$not"}


def matches(document: Document, criteria: Document) -> bool:
    """Return ``True`` when ``document`` satisfies the filter ``criteria``.

    ``criteria`` follows MongoDB syntax: field paths map either to literal
    values (equality / array containment) or to operator documents such as
    ``{"$gte": 10}``; ``$and``/``$or``/``$nor`` combine sub-filters.
    """
    if not isinstance(criteria, dict):
        raise InvalidQueryError(f"filter must be a document, got {type(criteria).__name__}")
    for key, condition in criteria.items():
        if key == "$and":
            if not _match_and(document, condition):
                return False
        elif key == "$or":
            if not _match_or(document, condition):
                return False
        elif key == "$nor":
            if _match_or(document, condition):
                return False
        elif key.startswith("$"):
            raise InvalidQueryError(f"unknown top-level operator: {key}")
        else:
            if not _match_field(document, key, condition):
                return False
    return True


def _match_and(document: Document, conditions: Any) -> bool:
    _require_clause_list("$and", conditions)
    return all(matches(document, clause) for clause in conditions)


def _match_or(document: Document, conditions: Any) -> bool:
    _require_clause_list("$or/$nor", conditions)
    return any(matches(document, clause) for clause in conditions)


def _require_clause_list(name: str, conditions: Any) -> None:
    if not isinstance(conditions, list) or not conditions:
        raise InvalidQueryError(f"{name} requires a non-empty list of clauses")
    for clause in conditions:
        if not isinstance(clause, dict):
            raise InvalidQueryError(f"{name} clauses must be documents")


def _field_values(document: Document, path: str) -> List[Any]:
    """Resolve a dotted path, fanning out over arrays like MongoDB does.

    Returns the list of candidate values the path resolves to.  An empty list
    means the path is entirely missing.
    """
    return _resolve_candidates(document, split_path(path))


def _resolve_candidates(node: Any, segments: Sequence[str]) -> List[Any]:
    if not segments:
        return [node]
    head, rest = segments[0], segments[1:]
    candidates: List[Any] = []
    if isinstance(node, dict):
        if head in node:
            candidates.extend(_resolve_candidates(node[head], rest))
    elif isinstance(node, list):
        if head.isdigit() and int(head) < len(node):
            candidates.extend(_resolve_candidates(node[int(head)], rest))
        else:
            for element in node:
                if isinstance(element, (dict, list)):
                    candidates.extend(_resolve_candidates(element, segments))
    return candidates


def _match_field(document: Document, path: str, condition: Any) -> bool:
    values = _field_values(document, path)
    if isinstance(condition, dict) and _is_operator_document(condition):
        return _match_operators(values, condition)
    return _equality_match(values, condition)


def _is_operator_document(condition: Dict[str, Any]) -> bool:
    has_operator = any(key.startswith("$") for key in condition)
    has_literal = any(not key.startswith("$") for key in condition)
    if has_operator and has_literal:
        raise InvalidQueryError(
            "cannot mix operators and literal fields in one condition document"
        )
    return has_operator


def _equality_match(values: List[Any], expected: Any) -> bool:
    """Equality with MongoDB array semantics (value equals or is contained)."""
    if not values:
        return expected is None
    for value in values:
        if _values_equal(value, expected):
            return True
        if isinstance(value, list) and any(_values_equal(item, expected) for item in value):
            return True
    return False


def _values_equal(left: Any, right: Any) -> bool:
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    return bson_type(left) == bson_type(right) and compare_values(left, right) == 0


def _match_operators(values: List[Any], operators: Dict[str, Any]) -> bool:
    return all(
        _apply_operator(operator, operand, values) for operator, operand in operators.items()
    )


def _apply_operator(operator: str, operand: Any, values: List[Any]) -> bool:
    handler = _OPERATOR_HANDLERS.get(operator)
    if handler is None:
        raise InvalidQueryError(f"unsupported query operator: {operator}")
    return handler(operand, values)


# -- individual operators ---------------------------------------------------------


def _flatten_for_comparison(values: List[Any]) -> List[Any]:
    """Candidate scalars for comparison operators: values plus array elements."""
    flattened: List[Any] = []
    for value in values:
        flattened.append(value)
        if isinstance(value, list):
            flattened.extend(value)
    return flattened


def _comparison(operand: Any, values: List[Any], accept: Callable[[int], bool]) -> bool:
    for value in _flatten_for_comparison(values):
        if bson_type(value) != bson_type(operand):
            continue
        if accept(compare_values(value, operand)):
            return True
    return False


def _op_eq(operand: Any, values: List[Any]) -> bool:
    return _equality_match(values, operand)


def _op_ne(operand: Any, values: List[Any]) -> bool:
    return not _equality_match(values, operand)


def _op_gt(operand: Any, values: List[Any]) -> bool:
    return _comparison(operand, values, lambda sign: sign > 0)


def _op_gte(operand: Any, values: List[Any]) -> bool:
    return _comparison(operand, values, lambda sign: sign >= 0)


def _op_lt(operand: Any, values: List[Any]) -> bool:
    return _comparison(operand, values, lambda sign: sign < 0)


def _op_lte(operand: Any, values: List[Any]) -> bool:
    return _comparison(operand, values, lambda sign: sign <= 0)


def _op_in(operand: Any, values: List[Any]) -> bool:
    if not isinstance(operand, list):
        raise InvalidQueryError("$in requires a list operand")
    return any(_equality_match(values, candidate) for candidate in operand)


def _op_nin(operand: Any, values: List[Any]) -> bool:
    if not isinstance(operand, list):
        raise InvalidQueryError("$nin requires a list operand")
    return not any(_equality_match(values, candidate) for candidate in operand)


def _op_exists(operand: Any, values: List[Any]) -> bool:
    expected = bool(operand)
    return bool(values) == expected


def _op_regex(operand: Any, values: List[Any]) -> bool:
    if not isinstance(operand, str):
        raise InvalidQueryError("$regex requires a string pattern")
    try:
        pattern = re.compile(operand)
    except re.error as exc:
        raise InvalidQueryError(f"invalid $regex pattern: {exc}") from exc
    for value in _flatten_for_comparison(values):
        if isinstance(value, str) and pattern.search(value):
            return True
    return False


def _op_not(operand: Any, values: List[Any]) -> bool:
    if not isinstance(operand, dict):
        raise InvalidQueryError("$not requires an operator document")
    return not _match_operators(values, operand)


def _op_all(operand: Any, values: List[Any]) -> bool:
    if not isinstance(operand, list):
        raise InvalidQueryError("$all requires a list operand")
    return all(_equality_match(values, candidate) for candidate in operand)


def _op_size(operand: Any, values: List[Any]) -> bool:
    if not isinstance(operand, int) or isinstance(operand, bool):
        raise InvalidQueryError("$size requires an integer operand")
    return any(isinstance(value, list) and len(value) == operand for value in values)


def _op_elem_match(operand: Any, values: List[Any]) -> bool:
    if not isinstance(operand, dict):
        raise InvalidQueryError("$elemMatch requires a filter document")
    for value in values:
        if not isinstance(value, list):
            continue
        for element in value:
            if isinstance(element, dict):
                if matches(element, operand):
                    return True
            elif _is_operator_document(operand) and _match_operators([element], operand):
                return True
    return False


def _op_mod(operand: Any, values: List[Any]) -> bool:
    if (
        not isinstance(operand, list)
        or len(operand) != 2
        or any(isinstance(part, bool) or not isinstance(part, (int, float)) for part in operand)
    ):
        raise InvalidQueryError("$mod requires a [divisor, remainder] pair")
    divisor, remainder = operand
    if divisor == 0:
        raise InvalidQueryError("$mod divisor must not be zero")
    for value in _flatten_for_comparison(values):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if value % divisor == remainder:
            return True
    return False


def _op_type(operand: Any, values: List[Any]) -> bool:
    if not isinstance(operand, str):
        raise InvalidQueryError("$type requires a type-name string")
    return any(bson_type(value) == operand for value in values)


_OPERATOR_HANDLERS: Dict[str, Callable[[Any, List[Any]], bool]] = {
    "$eq": _op_eq,
    "$ne": _op_ne,
    "$gt": _op_gt,
    "$gte": _op_gte,
    "$lt": _op_lt,
    "$lte": _op_lte,
    "$in": _op_in,
    "$nin": _op_nin,
    "$exists": _op_exists,
    "$regex": _op_regex,
    "$not": _op_not,
    "$all": _op_all,
    "$size": _op_size,
    "$elemMatch": _op_elem_match,
    "$mod": _op_mod,
    "$type": _op_type,
}

#: Operators understood by :func:`matches`; exported for query validation.
SUPPORTED_OPERATORS = frozenset(_OPERATOR_HANDLERS) | _LOGICAL_OPERATORS
