"""Differential: the InvaliDB candidate index against a full scan.

``QueryStateIndex.candidates`` may only change how many query states an
event touches, never which notifications it produces.  The reference is the
full scan, kept here in the test: every registered state, in registration
order.  Two clusters of the same geometry register the same generated
queries -- equality (literal and ``$eq``), array containment, values the
index must refuse (``None``, NaN, whole arrays, dotted paths) and predicates
it cannot index at all -- and process the same generated stream of inserts,
updates and deletes, some of them without their before-image.  The indexed
cluster must return the scan's notification list for every event, and its
nodes must evaluate no more states than the scan's.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.changestream import ChangeEvent, OperationType
from repro.db.query import Query
from repro.invalidb.cluster import InvaliDBCluster

COLLECTIONS = ("posts", "users")
DOCUMENT_IDS = ("d0", "d1", "d2")

#: Field values: scalars the index keys on, look-alikes of them (``1`` /
#: ``1.0`` / ``True`` / ``"1"``), values it must never key on, containers.
scalars = st.sampled_from([0, 1, 2, 1.0, True, False, "1", "a", "b", None])
values = st.one_of(
    scalars,
    st.just(float("nan")),
    st.lists(scalars, max_size=3),
    st.fixed_dictionaries({"x": scalars}),
)

other_fields = {
    "tags": st.one_of(st.lists(scalars, max_size=3), values),
    "views": st.integers(min_value=0, max_value=9),
    "meta": st.fixed_dictionaries({"x": scalars}),
}
images = st.one_of(
    st.fixed_dictionaries({"category": scalars}, optional=other_fields),
    st.fixed_dictionaries({}, optional={"category": values, **other_fields}),
)

conditions = st.one_of(
    scalars,  # literal equality: indexed, unless the value is None
    st.builds(lambda value: {"$eq": value}, scalars),
    values,  # NaN, array containment, whole-array or embedded-document equality
    st.builds(lambda bound: {"$gte": bound}, st.integers(min_value=0, max_value=9)),
    st.builds(lambda value: {"$ne": value}, scalars),
)

stateless_queries = st.builds(
    Query,
    st.sampled_from(COLLECTIONS),
    st.one_of(
        st.dictionaries(st.sampled_from(["category", "tags", "views", "meta.x"]), conditions, max_size=2),
        st.builds(
            lambda left, right: {"$or": [{"category": left}, {"views": right}]},
            scalars,
            st.integers(min_value=0, max_value=9),
        ),
    ),
)

queries = st.one_of(
    stateless_queries,
    # Sorted windows go to the order-maintenance layer, which is indexed too.
    st.builds(
        lambda collection, value, limit: Query(
            collection, {"category": value}, sort=[("views", 1)], limit=limit
        ),
        st.sampled_from(COLLECTIONS),
        scalars,
        st.integers(min_value=1, max_value=3),
    ),
)

#: (collection, document id, after-image or None for a delete, drop the before-image)
writes = st.tuples(
    st.sampled_from(COLLECTIONS),
    st.sampled_from(DOCUMENT_IDS),
    st.one_of(st.none(), images),
    st.booleans(),
)


def scan_candidates(index, event):
    """The reference full scan: every registered state, in registration order."""
    return list(index._states.values())


def use_full_scan(cluster):
    for index in [node._index for node in cluster.nodes] + [cluster._stateful_states]:
        index.candidates = lambda event, index=index: scan_candidates(index, event)


def change_stream(steps):
    """Turn generated writes into a stream whose images follow the documents."""
    documents = {}
    for sequence, (collection, document_id, after, drop_before) in enumerate(steps, 1):
        key = (collection, document_id)
        before = documents.get(key)
        if after is not None:
            after = dict(after, _id=document_id)
        if before is None and after is None:
            continue  # deleting a document that does not exist writes nothing
        if before is None:
            operation = OperationType.INSERT
        elif after is None:
            operation = OperationType.DELETE
        else:
            operation = OperationType.UPDATE
        if after is None:
            del documents[key]
        else:
            documents[key] = after
        yield ChangeEvent(
            sequence,
            operation,
            collection,
            document_id,
            None if drop_before and operation is not OperationType.INSERT else before,
            after,
            float(sequence),
        )


def notification_rows(notifications):
    return [
        (n.query_key, n.type.value, n.document_id, n.timestamp, n.new_index)
        for n in notifications
    ]


def assert_indexed_matches_scan(registered, steps, nodes):
    indexed = InvaliDBCluster(matching_nodes=nodes)
    scanning = InvaliDBCluster(matching_nodes=nodes)
    use_full_scan(scanning)
    for query in registered:
        indexed.register_query(query, [])
        scanning.register_query(query, [])
    for event in change_stream(steps):
        assert notification_rows(indexed.process_event(event)) == notification_rows(
            scanning.process_event(event)
        ), event
    indexed_ops = sum(node.match_operations for node in indexed.nodes)
    scan_ops = sum(node.match_operations for node in scanning.nodes)
    assert indexed_ops <= scan_ops


@given(
    st.lists(queries, min_size=1, max_size=12),
    st.lists(writes, min_size=1, max_size=40),
    st.sampled_from([1, 4]),
)
@settings(max_examples=300, deadline=None)
def test_indexed_cluster_notifies_exactly_like_the_full_scan(registered, steps, nodes):
    assert_indexed_matches_scan(registered, steps, nodes)


def family(field, conditions_):
    """Queries of one kind only, so a failure names the kind at fault."""
    return st.lists(
        st.builds(Query, st.sampled_from(COLLECTIONS), st.fixed_dictionaries({field: conditions_})),
        min_size=1,
        max_size=8,
    )


FAMILIES = {
    "equality": family("category", st.one_of(scalars, st.builds(lambda v: {"$eq": v}, scalars))),
    "array-containment": family("tags", scalars),
    "unsafe-values": family(
        "category",
        st.one_of(
            st.just(None),
            st.just(float("nan")),
            st.lists(scalars, max_size=3),
            st.fixed_dictionaries({"x": scalars}),
        ),
    ),
    "dotted-path": family("meta.x", scalars),
    "non-indexable": st.lists(
        st.builds(
            Query,
            st.sampled_from(COLLECTIONS),
            st.one_of(
                st.builds(lambda b: {"views": {"$gte": b}}, st.integers(min_value=0, max_value=9)),
                st.builds(lambda v: {"category": {"$ne": v}}, scalars),
                st.builds(
                    lambda left, right: {"$or": [{"category": left}, {"views": right}]},
                    scalars,
                    st.integers(min_value=0, max_value=9),
                ),
            ),
        ),
        min_size=1,
        max_size=8,
    ),
}


@pytest.mark.parametrize("kind", sorted(FAMILIES))
@given(st.data(), st.lists(writes, min_size=1, max_size=30), st.sampled_from([1, 3]))
@settings(max_examples=60, deadline=None)
def test_each_query_kind_notifies_like_the_full_scan(kind, data, steps, nodes):
    assert_indexed_matches_scan(data.draw(FAMILIES[kind]), steps, nodes)


@given(
    st.lists(queries, min_size=1, max_size=8),
    st.lists(
        st.tuples(
            st.sampled_from(COLLECTIONS),
            st.sampled_from(DOCUMENT_IDS),
            st.one_of(st.none(), images),
            st.just(True),
        ),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=100, deadline=None)
def test_events_without_before_images_notify_like_the_full_scan(registered, steps):
    assert_indexed_matches_scan(registered, steps, 2)
