"""Property-based tests for the predicate matcher and update operators."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.db import Database, Query
from repro.db.documents import compare_values, deep_copy, order_key
from repro.db.predicates import compile_criteria, matches
from repro.db.updates import apply_update
from repro.errors import InvalidQueryError

field_names = st.sampled_from(["views", "likes", "score", "rank"])
scalar_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False),
)

documents = st.fixed_dictionaries(
    {
        "_id": st.text(min_size=1, max_size=8),
        "views": st.integers(min_value=0, max_value=1000),
        "title": st.text(max_size=12),
        "tags": st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=4),
    }
)


# -- generated filters over every supported operator ---------------------------------
#
# Small value domains on purpose: 1 / 1.0 / True, "" / None / missing and
# scalars vs one-element arrays must collide often, because that is where an
# equality class or an index key can go wrong.

mixed_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=3),
    st.sampled_from([0.0, 1.0, 1.5, 2.0, -1.0]),
    st.sampled_from(["", "a", "b", "ab", "1"]),
)
leaves = st.one_of(mixed_scalars, st.lists(mixed_scalars, max_size=3))
subdocuments = st.dictionaries(st.sampled_from(["x", "y"]), leaves, max_size=2)
field_values = st.one_of(leaves, subdocuments, st.lists(st.one_of(subdocuments, mixed_scalars), max_size=3))
rich_documents = st.fixed_dictionaries(
    {"_id": st.integers(min_value=0, max_value=40), "a": field_values},
    optional={"b": field_values},
)
paths = st.sampled_from(["a", "b", "a.x", "b.y", "a.0", "a.1.y", "b.x.0", "zz"])
operands = st.one_of(mixed_scalars, st.lists(mixed_scalars, max_size=2), subdocuments)


_leaf_operators = st.one_of(
    st.tuples(st.sampled_from(["$eq", "$ne", "$gt", "$gte", "$lt", "$lte"]), operands),
    st.tuples(st.sampled_from(["$in", "$nin", "$all"]), st.lists(operands, max_size=3)),
    st.tuples(st.just("$exists"), st.booleans()),
    st.tuples(st.just("$regex"), st.sampled_from(["a", "^a", "b$", ".", "^$", "[0-9]"])),
    st.tuples(st.just("$size"), st.integers(min_value=0, max_value=3)),
    st.tuples(
        st.just("$mod"),
        st.tuples(st.sampled_from([1, 2, 3, 1.5]), st.sampled_from([0, 1, 0.5])).map(list),
    ),
    st.tuples(
        st.just("$type"),
        st.sampled_from(["null", "number", "string", "document", "array", "boolean"]),
    ),
)


def _operator_documents(inner):
    nesting = st.one_of(
        st.tuples(st.just("$not"), inner),
        st.tuples(st.just("$elemMatch"), inner),
        st.tuples(st.just("$elemMatch"), _criteria_over(st.sampled_from(["x", "y"]), inner)),
    )
    return st.lists(st.one_of(_leaf_operators, nesting), min_size=1, max_size=2).map(dict)


def _criteria_over(field_paths, operator_docs):
    conditions = st.one_of(operator_docs, operator_docs, operands)
    return st.dictionaries(field_paths, conditions, min_size=1, max_size=2)


operator_documents = st.recursive(
    st.lists(_leaf_operators, min_size=1, max_size=2).map(dict), _operator_documents, max_leaves=4
)


def _with_logic(inner):
    clause_lists = st.lists(inner, min_size=1, max_size=3)
    logical = st.dictionaries(st.sampled_from(["$and", "$or", "$nor"]), clause_lists, max_size=2)
    return st.tuples(inner, logical).map(lambda parts: {**parts[0], **parts[1]})


criteria_documents = st.recursive(_criteria_over(paths, operator_documents), _with_logic, max_leaves=6)


def _outcome(evaluate):
    """The verdict, or the error class: both implementations must agree on either."""
    try:
        return evaluate()
    except InvalidQueryError:
        return InvalidQueryError


def _numeric_twin(value):
    """The same number in the other numeric type (``1`` <-> ``1.0``); else unchanged."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return float(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class TestCompiledAgainstReferenceInterpreter:
    @given(criteria_documents, st.lists(rich_documents, min_size=1, max_size=5))
    @settings(max_examples=400, deadline=None)
    def test_compiled_matcher_equals_the_interpreter(self, reference, criteria, documents):
        compiled = compile_criteria(criteria)
        for document in documents:
            expected = _outcome(lambda: reference.matches(document, criteria))
            assert _outcome(lambda: compiled(document)) == expected, (criteria, document)

    @given(rich_documents, paths, st.one_of(operator_documents, operands), st.data())
    @settings(max_examples=300, deadline=None)
    def test_single_conditions_that_often_hold(self, reference, document, path, condition, data):
        """One field, and half the time an operand the document really holds there."""
        stored = reference._flatten_for_comparison(reference._field_values(document, path))
        if stored and data.draw(st.booleans()):
            value = _numeric_twin(data.draw(st.sampled_from(stored)))
            operator = data.draw(st.sampled_from(["$eq", "$gte", "$lte", "$in", "$all", "$ne"]))
            condition = {operator: [value] if operator in ("$in", "$all") else value}
        criteria = {path: condition}
        expected = _outcome(lambda: reference.matches(document, criteria))
        assert _outcome(lambda: compile_criteria(criteria)(document)) == expected, criteria

    @given(criteria_documents, rich_documents)
    @settings(max_examples=150, deadline=None)
    def test_query_plan_and_module_level_matches_are_the_same_path(self, reference, criteria, document):
        expected = _outcome(lambda: reference.matches(document, criteria))
        assert _outcome(lambda: matches(document, criteria)) == expected
        assert _outcome(lambda: Query("t", criteria).matches(document)) == expected


class TestIndexedEqualsUnindexed:
    """An index may narrow the candidates, never change the answer."""

    INDEXED_FIELDS = ["a", "b", "a.x", "a.1.y", "b.y"]

    @given(
        st.lists(rich_documents, max_size=8, unique_by=lambda document: document["_id"]),
        st.lists(rich_documents, max_size=4),
        st.lists(criteria_documents, max_size=3),
        st.lists(paths, min_size=1, max_size=4, unique=True),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_find_and_count_agree(self, reference, inserted, replacements, filters, probed_paths, data):
        database = Database()
        scanned = database.create_collection("scanned")
        indexed = database.create_collection("indexed")
        for field in self.INDEXED_FIELDS[:3]:
            indexed.create_index(field)
        for document in inserted:
            scanned.insert(document)
            indexed.insert(document)
        for field in self.INDEXED_FIELDS[3:]:
            indexed.create_index(field)  # backfill path
        for document in replacements:  # index maintenance on update / delete
            if str(document["_id"]) in scanned:
                scanned.replace(document["_id"], document)
                indexed.replace(document["_id"], document)
            elif len(scanned):
                victim = scanned.ids()[0]
                scanned.delete(victim)
                indexed.delete(victim)

        # Equality probes that hit: a value some stored document holds under
        # the path (whole or as an array element), and the same number in the
        # other numeric type.
        equalities = {}
        for path in probed_paths:
            stored = [
                candidate
                for document_id in scanned.ids()
                for value in reference._field_values(scanned.get(document_id), path)
                for candidate in [value] + (value if isinstance(value, list) else [])
            ]
            equalities[path] = data.draw(st.sampled_from(stored) if stored else operands)
        twins = {path: _numeric_twin(value) for path, value in equalities.items()}
        probes = [{path: value} for path, value in list(equalities.items()) + list(twins.items())]
        probes += [{path: {"$eq": value}} for path, value in twins.items()]
        probes += [equalities, twins]

        for criteria in filters + probes:
            by_scan = _outcome(lambda: scanned.find(Query("scanned", criteria)))
            by_index = _outcome(lambda: indexed.find(Query("indexed", criteria)))
            assert by_index == by_scan, criteria
            count = _outcome(lambda: indexed.count(Query("indexed", criteria)))
            assert count == (by_scan if by_scan is InvalidQueryError else len(by_scan)), criteria

    def test_numbers_are_one_equality_class_for_the_index_too(self):
        """The concrete case the property found: int and float probes disagreed."""
        database = Database()
        posts = database.create_collection("posts")
        posts.create_index("category")
        for document_id, category in enumerate([1, 1.0, [1.0, 5], True, "1", 2]):
            posts.insert({"_id": document_id, "category": category})
        for probe in (1, 1.0):
            found = posts.find(Query("posts", {"category": probe}))
            assert [document["_id"] for document in found] == [0, 1, 2]
            assert posts.count(Query("posts", {"category": probe})) == 3
        assert [d["_id"] for d in posts.find(Query("posts", {"category": True}))] == [3]


class TestOrderKeyProperties:
    values = st.recursive(
        mixed_scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(["x", "y"]), inner, max_size=2)
        ),
        max_leaves=5,
    )

    @given(values, values)
    @settings(max_examples=300)
    def test_order_key_is_the_old_comparator_made_native(self, reference, left, right):
        a, b = order_key(left), order_key(right)
        assert (a > b) - (a < b) == reference.compare_values(left, right)
        assert compare_values(left, right) == reference.compare_values(left, right)
        assert (hash(a) == hash(b)) or a != b  # equal values share an index bucket


class TestPredicateProperties:
    @given(documents)
    @settings(max_examples=80)
    def test_empty_filter_matches_everything(self, document):
        assert matches(document, {})

    @given(documents, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=80)
    def test_comparison_operators_agree_with_python(self, document, threshold):
        views = document["views"]
        assert matches(document, {"views": {"$gt": threshold}}) == (views > threshold)
        assert matches(document, {"views": {"$gte": threshold}}) == (views >= threshold)
        assert matches(document, {"views": {"$lt": threshold}}) == (views < threshold)
        assert matches(document, {"views": {"$lte": threshold}}) == (views <= threshold)
        assert matches(document, {"views": {"$eq": threshold}}) == (views == threshold)
        assert matches(document, {"views": {"$ne": threshold}}) == (views != threshold)

    @given(documents, st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_in_is_disjunction_of_equalities(self, document, candidates):
        as_in = matches(document, {"views": {"$in": candidates}})
        as_or = matches(document, {"$or": [{"views": value} for value in candidates]})
        assert as_in == as_or

    @given(documents, st.sampled_from(["a", "b", "c", "d", "z"]))
    @settings(max_examples=60)
    def test_tag_containment_equals_python_membership(self, document, tag):
        assert matches(document, {"tags": tag}) == (tag in document["tags"])

    @given(documents, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60)
    def test_not_is_complement(self, document, threshold):
        positive = matches(document, {"views": {"$gt": threshold}})
        negative = matches(document, {"views": {"$not": {"$gt": threshold}}})
        assert positive != negative

    @given(documents, st.integers(min_value=0, max_value=1000), st.sampled_from(["a", "b", "z"]))
    @settings(max_examples=60)
    def test_de_morgan_nor_equals_not_or(self, document, threshold, tag):
        clauses = [{"views": {"$gt": threshold}}, {"tags": tag}]
        assert matches(document, {"$nor": clauses}) == (not matches(document, {"$or": clauses}))

    @given(documents)
    @settings(max_examples=60)
    def test_matching_does_not_mutate_document(self, document):
        snapshot = deep_copy(document)
        matches(document, {"views": {"$gt": 10}, "tags": "a"})
        assert document == snapshot


class TestCompareValuesProperties:
    values = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-50, max_value=50),
        st.text(max_size=5),
        st.lists(st.integers(min_value=-5, max_value=5), max_size=3),
    )

    @given(values, values)
    @settings(max_examples=100)
    def test_antisymmetry(self, left, right):
        assert compare_values(left, right) == -compare_values(right, left)

    @given(values)
    @settings(max_examples=60)
    def test_reflexivity(self, value):
        assert compare_values(value, value) == 0

    @given(values, values, values)
    @settings(max_examples=100)
    def test_transitivity_of_ordering(self, a, b, c):
        ordered = sorted([a, b, c], key=lambda value: _OrderKey(value))
        assert compare_values(ordered[0], ordered[1]) <= 0
        assert compare_values(ordered[1], ordered[2]) <= 0
        assert compare_values(ordered[0], ordered[2]) <= 0


class _OrderKey:
    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return compare_values(self.value, other.value) < 0


class TestUpdateProperties:
    @given(documents, field_names, scalar_values)
    @settings(max_examples=80)
    def test_set_then_read_back(self, document, field, value):
        updated = apply_update(document, {"$set": {field: value}})
        assert updated[field] == value

    @given(documents, st.integers(min_value=-100, max_value=100), st.integers(min_value=-100, max_value=100))
    @settings(max_examples=80)
    def test_inc_composes_additively(self, document, first, second):
        in_two_steps = apply_update(
            apply_update(document, {"$inc": {"views": first}}), {"$inc": {"views": second}}
        )
        in_one_step = apply_update(document, {"$inc": {"views": first + second}})
        assert in_two_steps["views"] == in_one_step["views"]

    @given(documents, st.sampled_from(["a", "b", "c", "x"]))
    @settings(max_examples=60)
    def test_add_to_set_is_idempotent(self, document, tag):
        once = apply_update(document, {"$addToSet": {"tags": tag}})
        twice = apply_update(once, {"$addToSet": {"tags": tag}})
        assert once["tags"] == twice["tags"]
        assert tag in twice["tags"]

    @given(documents, st.sampled_from(["a", "b", "c"]))
    @settings(max_examples=60)
    def test_pull_removes_all_occurrences(self, document, tag):
        updated = apply_update(document, {"$pull": {"tags": tag}})
        assert tag not in updated["tags"]

    @given(documents, field_names, scalar_values)
    @settings(max_examples=80)
    def test_updates_never_mutate_the_input(self, document, field, value):
        snapshot = deep_copy(document)
        apply_update(document, {"$set": {field: value}})
        apply_update(document, {"$inc": {"views": 3}})
        apply_update(document, {"$push": {"tags": "zzz"}})
        assert document == snapshot

    @given(documents)
    @settings(max_examples=40)
    def test_update_preserves_id(self, document):
        updated = apply_update(document, {"$set": {"title": "x"}})
        assert updated["_id"] == document["_id"]
