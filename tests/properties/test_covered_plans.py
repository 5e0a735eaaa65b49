"""A covered plan's index bucket *is* its match set.

``Collection.find`` skips the predicate for a *covered* plan -- every
criterion a top-level equality probe on an indexed field, no NaN operand --
and answers with the bucket alone.  Agreeing with an unindexed ``find`` is
not enough to make that safe: a superset bucket filtered by the matcher
agrees too.  So for every plan the collection treats as covered, this
requires the candidate ids to equal, id for id, the documents the compiled
predicate accepts -- on generated documents that collide ``1`` / ``1.0`` /
``True``, ``None`` / missing, scalars / arrays (multikey entries), on dotted
paths, after updates and deletes that move index entries, and with a shared
NaN object stored and probed (the bucket finds it by identity; ``==`` never
matches it, so a NaN operand must never count as covered).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.db import Database, Query

#: One NaN object, stored and probed: a bucket lookup finds it by identity.
NAN = float("nan")
INDEXED = ("a", "a.x", "b.0")

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-1, max_value=2),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.sampled_from(["", "a", "1"]),
    st.just(NAN),
)
leaves = st.one_of(scalars, st.lists(scalars, max_size=3))
values = st.one_of(
    leaves,
    st.dictionaries(st.just("x"), leaves, max_size=1),
    st.lists(st.dictionaries(st.just("x"), leaves, max_size=1), max_size=2),
)
documents = st.fixed_dictionaries(
    {"_id": st.integers(min_value=0, max_value=12)}, optional={"a": values, "b": values}
)
paths = st.sampled_from(["a", "a.x", "b.0", "b", "zz"])  # the last two are not indexed
conditions = st.one_of(
    values,
    values.map(lambda value: {"$eq": value}),
    st.lists(values, min_size=1, max_size=2).map(lambda operand: {"$in": operand}),
    values.map(lambda value: {"$ne": value}),
)
criteria_documents = st.dictionaries(paths, conditions, max_size=2)


def _assert_covered_plans_are_exact(collection, criteria_list):
    covered = 0
    for criteria in criteria_list:
        query = Query("c", criteria)
        ids, is_covered = collection._candidates(query)
        matched = {
            document_id
            for document_id in collection.ids()
            if query.plan.matches(collection.get(document_id))
        }
        if is_covered:
            covered += 1
            assert set(ids) == matched, criteria
        assert {str(document["_id"]) for document in collection.find(query)} == matched, criteria
        assert collection.count(query) == len(matched), criteria
    return covered


@given(
    st.lists(documents, min_size=1, max_size=8),
    st.lists(documents, max_size=4),
    st.lists(criteria_documents, max_size=6),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_a_covered_plans_bucket_is_exactly_its_match_set(
    reference, inserted, rewritten, generated, data
):
    collection = Database().create_collection("c")
    for field in INDEXED[:2]:
        collection.create_index(field)
    for document in inserted:
        if str(document["_id"]) not in collection:
            collection.insert(document)
    collection.create_index(INDEXED[2])  # backfill
    for document in rewritten:  # updates and deletes move index entries
        document_id = str(document["_id"])
        if document_id in collection:
            if len(document) > 1:
                collection.replace(document_id, document)
            else:
                collection.delete(document_id)

    # Probes that hit: every value stored under an indexed path, as a literal
    # and as ``$eq``, plus its numeric and boolean look-alikes.
    probes = list(generated)
    for path in INDEXED:
        stored = [
            value
            for document_id in collection.ids()
            for value in reference._flatten_for_comparison(
                reference._field_values(collection.get(document_id), path)
            )
        ]
        for value in data.draw(st.lists(st.sampled_from(stored), max_size=3)) if stored else ():
            probes += [{path: value}, {path: {"$eq": value}}]
        probes += [{path: look_alike} for look_alike in (1, 1.0, True, None, NAN)]
    probes.append({"a": 1, "a.x": None})
    assert _assert_covered_plans_are_exact(collection, probes) >= len(INDEXED) * 4


def _collection(*documents, index="score"):
    collection = Database().create_collection("c")
    collection.create_index(index)
    for document in documents:
        collection.insert(document)
    return collection


def test_a_nan_operand_is_never_covered():
    """The witness: the bucket holds the NaN document, the predicate rejects it."""
    collection = _collection({"_id": 1, "score": NAN}, {"_id": 2, "score": 1})
    query = Query("c", {"score": NAN})
    ids, covered = collection._candidates(query)
    assert set(ids) == {"1"}  # the same NaN object, found by identity
    assert not query.plan.matches(collection.get("1"))
    assert not covered
    assert collection.find(query) == [] and collection.count(query) == 0
    assert not collection._candidates(Query("c", {"score": {"$eq": NAN}}))[1]


def test_covered_shapes():
    """Which plans count as covered: indexed top-level equalities only."""
    collection = _collection({"_id": 1, "score": 1, "other": 2})
    for criteria, covered in (
        ({"score": 1}, True),
        ({"score": {"$eq": 1}}, True),
        ({"score": 1.0}, True),
        ({"score": [1, NAN]}, True),  # a nested NaN is compared by identity on both sides
        ({}, True),
        ({"score": {"$in": [1]}}, False),
        ({"score": {"$eq": 1, "$ne": 2}}, False),
        ({"score": 1, "other": 2}, False),  # ``other`` is not indexed
        ({"$or": [{"score": 1}]}, False),
        ({"score": {"x": 1}}, False),
    ):
        assert collection._candidates(Query("c", criteria))[1] is covered, criteria
