"""A memoised covered result always equals a fresh evaluation.

``Collection.find_versioned`` hands back a covered plan's previous result
while the stamps of every bucket it probed are unchanged.  This drives
interleavings of inserts, deletes, delete + re-insert of the same content
(ABA), and updates that move a document between buckets, change an
unindexed field, or change the sort field -- and after every step compares
each covered query (sorted, limited, offset, one or two probes) with an
evaluation that runs no memo: the predicate over every stored document,
windowed.  Validating a memo by bucket membership alone misses the content
updates; validating it by the served members alone misses a candidate
outside the window sorting into it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.clock import VirtualClock
from repro.db import Database, Query
from repro.db.query import window_ids

IDS = [f"d{number}" for number in range(8)]

QUERIES = [
    Query("c", {"a": 0}),
    Query("c", {"a": 1}, sort=[("s", 1)]),
    Query("c", {"a": 0}, sort=[("s", -1)], limit=2),
    Query("c", {"a": 1}, sort=[("s", 1)], limit=2, offset=1),
    Query("c", {"a": 0, "b": 1}, sort=[("s", 1)], limit=1),
    Query("c", {"b": 0}, limit=3),
    Query("c", {"a": 2}),
]

small = st.integers(min_value=0, max_value=2)
documents = st.fixed_dictionaries({"a": small, "b": small, "s": small, "x": small})
steps = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(IDS), documents),
    st.tuples(st.just("delete"), st.sampled_from(IDS)),
    st.tuples(st.just("reinsert"), st.sampled_from(IDS)),
    st.tuples(st.just("update"), st.sampled_from(IDS), st.sampled_from("absx"), small),
    st.tuples(st.just("query"),),
)


def _fresh(collection, query):
    """The result no memo took part in: predicate over everything, windowed."""
    stored = {document_id: collection.get(document_id) for document_id in collection.ids()}
    matched = [document_id for document_id, document in stored.items() if query.matches(document)]
    ids = window_ids(matched, stored, query)
    return [stored[document_id] for document_id in ids], {
        document_id: collection.version(document_id) for document_id in ids
    }


def _apply(collection, step):
    kind, *arguments = step
    if kind == "insert":
        document_id, fields = arguments
        if document_id not in collection:
            collection.insert({"_id": document_id, **fields})
    elif kind == "delete":
        if arguments[0] in collection:
            collection.delete(arguments[0])
    elif kind == "reinsert":
        document_id = arguments[0]
        if document_id in collection:
            before = dict(collection.get(document_id))
            collection.delete(document_id)
            collection.insert(before)
    elif kind == "update":
        document_id, field, value = arguments
        if document_id in collection:
            collection.update(document_id, {"$set": {field: value}})


@given(st.lists(documents, max_size=6), st.lists(steps, max_size=25))
@settings(max_examples=400, deadline=None)
def test_a_memoised_covered_result_equals_a_fresh_evaluation(initial, script):
    collection = Database(clock=VirtualClock()).create_collection("c")
    collection.create_index("a")
    collection.create_index("b")
    for document_id, fields in zip(IDS, initial):
        collection.insert({"_id": document_id, **fields})
    for step in [("query",), *script]:
        _apply(collection, step)
        for query in QUERIES:
            documents, versions = collection.find_versioned(query)
            expected_documents, expected_versions = _fresh(collection, query)
            assert documents == expected_documents, (query, step)
            assert all(map(lambda got, want: got is want, documents, expected_documents))
            assert versions == expected_versions, (query, step)
            assert list(versions) == [str(document["_id"]) for document in documents]


def test_an_unchanged_result_is_served_from_the_memo():
    """Vacuity check: the property above exercises memo hits, not only misses."""
    collection = Database(clock=VirtualClock()).create_collection("c")
    collection.create_index("a")
    for number in range(6):
        collection.insert({"_id": f"d{number}", "a": number % 2, "s": number})
    query = Query("c", {"a": 0}, sort=[("s", -1)], limit=2)
    first = collection.find_versioned(query)
    collection.update("d1", {"$set": {"s": 9}})  # another bucket: still valid
    second = collection.find_versioned(query)
    assert second[0] is first[0] and second[1] is first[1]
    collection.update("d0", {"$set": {"x": 1}})  # a bucket member outside the window
    third = collection.find_versioned(query)
    assert third[0] is not first[0] and third == first
