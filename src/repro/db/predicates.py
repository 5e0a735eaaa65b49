"""MongoDB-style predicate matching, compiled.

This is the matching engine shared by the database's ``find`` path and by
InvaliDB's invalidation detection: given a filter document and a record
after-image, decide whether the record satisfies the filter.  The supported
operator set covers the boolean expressions over single-table predicates that
the paper's scope requires (Section 2 / Section 4.1), including the implicit
"array contains" semantics used by the running ``tags CONTAINS 'example'``
example.

A filter is compiled once (:func:`compile_criteria`) into a tree of closures
that is called per document: validation, path splitting and operator dispatch
happen at compile time, so a malformed filter raises on the first
``matches``/``find`` even where evaluation would have short-circuited past it.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Dict, List, Sequence

from repro.db.documents import Document, MISSING, bson_type, order_key, split_path
from repro.errors import InvalidQueryError

Matcher = Callable[[Any], bool]  #: a compiled filter: document -> bool
ValuesTest = Callable[[List[Any]], bool]  #: a field condition: resolved values -> bool

#: ``$and``/``$or``/``$nor``: name in error messages, quantifier, negated.
_CLAUSE_LISTS = {
    "$and": ("$and", all, False),
    "$or": ("$or/$nor", any, False),
    "$nor": ("$or/$nor", any, True),
}

#: For a plain scalar literal, the exact classes a stored value must have to be
#: in its equality class (numbers are one class, ``bool`` is not a number).
_NUMBER, _NONE = (int, float), type(None)
_SCALAR_CLASSES = {int: _NUMBER, float: _NUMBER, str: (str,), bool: (bool,), _NONE: (_NONE,)}


def matches(document: Document, criteria: Document) -> bool:
    """One-off check of ``document`` against ``criteria`` (a ``Query`` keeps its matcher)."""
    return compile_criteria(criteria)(document)


def compile_criteria(criteria: Document) -> Matcher:
    """Compile a filter document into a ``document -> bool`` closure.

    ``criteria`` follows MongoDB syntax: field paths map either to literal
    values (equality / array containment) or to operator documents such as
    ``{"$gte": 10}``; ``$and``/``$or``/``$nor`` combine sub-filters.
    """
    if not isinstance(criteria, dict):
        raise InvalidQueryError(f"filter must be a document, got {type(criteria).__name__}")
    clauses = [_compile_clause(key, condition) for key, condition in criteria.items()]
    if len(clauses) == 1:
        return clauses[0]

    def match_all(document: Any) -> bool:
        for clause in clauses:
            if not clause(document):
                return False
        return True

    return match_all


def _compile_clause(key: str, condition: Any) -> Matcher:
    if key in _CLAUSE_LISTS:
        name, quantifier, negated = _CLAUSE_LISTS[key]
        if not isinstance(condition, list) or not condition:
            raise InvalidQueryError(f"{name} requires a non-empty list of clauses")
        if not all(isinstance(clause, dict) for clause in condition):
            raise InvalidQueryError(f"{name} clauses must be documents")
        clauses = [compile_criteria(clause) for clause in condition]
        return lambda document: quantifier(clause(document) for clause in clauses) != negated
    if key.startswith("$"):
        raise InvalidQueryError(f"unknown top-level operator: {key}")

    segments = split_path(key)
    if isinstance(condition, dict) and _is_operator_document(condition):
        test = compile_operators(condition)
    else:
        test = _equality_test(condition)

    def match_field(document: Any) -> bool:
        return test(resolve_values(document, segments))

    if len(segments) != 1 or condition.__class__ not in _SCALAR_CLASSES:
        return match_field
    # ``{field: scalar}`` on an undotted field -- the shape of every dataset
    # query: ``dict.get``, a class check and ``==`` decide the plain cases;
    # arrays, scalar subclasses and non-dict documents go to ``match_field``.
    same_class = _SCALAR_CLASSES[condition.__class__]

    def match_scalar(document: Any) -> bool:
        if document.__class__ is dict:
            value = document.get(key, MISSING)
            cls = value.__class__
            if cls in same_class:
                return value == condition
            if value is MISSING:
                return condition is None
            if cls in _SCALAR_CLASSES:
                return False
        return match_field(document)

    return match_scalar


def resolve_values(node: Any, segments: Sequence[str]) -> List[Any]:
    """Resolve a split dotted path, fanning out over arrays like MongoDB does.

    Returns the values the path resolves to; none means the path is missing.
    """
    if not segments:
        return [node]
    head = segments[0]
    if isinstance(node, dict):
        return resolve_values(node[head], segments[1:]) if head in node else []
    if not isinstance(node, list):
        return []
    if head.isdigit() and int(head) < len(node):
        return resolve_values(node[int(head)], segments[1:])
    return [
        value
        for element in node
        if isinstance(element, (dict, list))
        for value in resolve_values(element, segments)
    ]


def _is_operator_document(condition: Dict[str, Any]) -> bool:
    kinds = {key.startswith("$") for key in condition}
    if len(kinds) == 2:
        raise InvalidQueryError(
            "cannot mix operators and literal fields in one condition document"
        )
    return True in kinds


def _equality_test(expected: Any) -> ValuesTest:
    """Equality with MongoDB array semantics (value equals or is contained)."""
    expected_key = order_key(expected)

    def test(values: List[Any]) -> bool:
        if not values:
            return expected is None
        return expected_key in map(order_key, with_array_elements(values))

    return test


# -- operators --------------------------------------------------------------------


def compile_operators(operators: Dict[str, Any]) -> ValuesTest:
    """Compile ``{"$gte": 10, "$lt": 20}`` into a test of a path's resolved values."""
    tests = []
    for operator, operand in operators.items():
        compiler = _OPERATOR_COMPILERS.get(operator)
        if compiler is None:
            raise InvalidQueryError(f"unsupported query operator: {operator}")
        tests.append(compiler(operand))
    if len(tests) == 1:
        return tests[0]
    return lambda values: all(test(values) for test in tests)


def _negated(test: ValuesTest) -> ValuesTest:
    return lambda values: not test(values)


def with_array_elements(values: List[Any]) -> List[Any]:
    """Each value whole plus, for arrays, element by element (MongoDB "contains")."""
    return [
        item
        for value in values
        for item in ([value, *value] if isinstance(value, list) else [value])
    ]


def _comparison(holds: Callable[[Any, Any], bool]) -> Callable[[Any], ValuesTest]:
    def compile_comparison(operand: Any) -> ValuesTest:
        operand_key = order_key(operand)
        # Only values of the operand's type class (the key's rank) compare.
        return lambda values: any(
            key[0] == operand_key[0] and holds(key, operand_key)
            for key in map(order_key, with_array_elements(values))
        )

    return compile_comparison


def _equality_list(
    name: str, quantifier: Callable, negated: bool = False
) -> Callable[[Any], ValuesTest]:
    def compile_list(operand: Any) -> ValuesTest:
        if not isinstance(operand, list):
            raise InvalidQueryError(f"{name} requires a list operand")
        tests = [_equality_test(candidate) for candidate in operand]
        return lambda values: quantifier(test(values) for test in tests) != negated

    return compile_list


def _op_exists(operand: Any) -> ValuesTest:
    expected = bool(operand)
    return lambda values: bool(values) == expected


def _op_regex(operand: Any) -> ValuesTest:
    if not isinstance(operand, str):
        raise InvalidQueryError("$regex requires a string pattern")
    try:
        search = re.compile(operand).search
    except re.error as exc:
        raise InvalidQueryError(f"invalid $regex pattern: {exc}") from exc
    return lambda values: any(
        isinstance(value, str) and search(value) for value in with_array_elements(values)
    )


def _op_not(operand: Any) -> ValuesTest:
    if not isinstance(operand, dict):
        raise InvalidQueryError("$not requires an operator document")
    return _negated(compile_operators(operand))


def _op_size(operand: Any) -> ValuesTest:
    if not isinstance(operand, int) or isinstance(operand, bool):
        raise InvalidQueryError("$size requires an integer operand")
    return lambda values: any(isinstance(value, list) and len(value) == operand for value in values)


def _deferred(compiler: Callable[[Any], Callable], operand: Any) -> Callable:
    """Compile now; if that fails, raise the error each time the result is needed."""
    try:
        return compiler(operand)
    except InvalidQueryError as error:
        message = str(error)

    def fail(_: Any) -> bool:
        raise InvalidQueryError(message)

    return fail


def _op_elem_match(operand: Any) -> ValuesTest:
    if not isinstance(operand, dict):
        raise InvalidQueryError("$elemMatch requires a filter document")
    # Two readings -- a filter over document elements, an operator condition
    # over scalar ones -- and the elements met decide which applies, so one
    # that does not compile (``{"$gt": 10}`` is no filter) raises only then.
    match_document = _deferred(compile_criteria, operand)
    test_scalar = _deferred(compile_operators, operand) if _is_operator_document(operand) else None

    def test(values: List[Any]) -> bool:
        for value in values:
            for element in value if isinstance(value, list) else ():
                if isinstance(element, dict):
                    if match_document(element):
                        return True
                elif test_scalar is not None and test_scalar([element]):
                    return True
        return False

    return test


def _op_mod(operand: Any) -> ValuesTest:
    if (
        not isinstance(operand, list)
        or len(operand) != 2
        or any(bson_type(part) != "number" for part in operand)
    ):
        raise InvalidQueryError("$mod requires a [divisor, remainder] pair")
    divisor, remainder = operand
    if divisor == 0:
        raise InvalidQueryError("$mod divisor must not be zero")
    return lambda values: any(
        bson_type(value) == "number" and value % divisor == remainder
        for value in with_array_elements(values)
    )


def _op_type(operand: Any) -> ValuesTest:
    if not isinstance(operand, str):
        raise InvalidQueryError("$type requires a type-name string")
    return lambda values: any(bson_type(value) == operand for value in values)


_OPERATOR_COMPILERS: Dict[str, Callable[[Any], ValuesTest]] = {
    "$eq": _equality_test,
    "$ne": lambda operand: _negated(_equality_test(operand)),
    "$gt": _comparison(operator.gt),
    "$gte": _comparison(operator.ge),
    "$lt": _comparison(operator.lt),
    "$lte": _comparison(operator.le),
    "$in": _equality_list("$in", any),
    "$nin": _equality_list("$nin", any, negated=True),
    "$exists": _op_exists,
    "$regex": _op_regex,
    "$not": _op_not,
    "$all": _equality_list("$all", all),
    "$size": _op_size,
    "$elemMatch": _op_elem_match,
    "$mod": _op_mod,
    "$type": _op_type,
}

#: Operators understood by :func:`compile_criteria`; exported for query validation.
SUPPORTED_OPERATORS = frozenset(_OPERATOR_COMPILERS) | {"$and", "$or", "$nor"}
