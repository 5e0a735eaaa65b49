"""The InvaliDB candidate index: maintenance, superset safety, golden parity.

The index must never change *what* is notified, only how many states are
touched per event.  The golden test replays a fixed mixed workload and pins
the serialized notification stream's SHA-256, captured from the pre-index
full-scan implementation -- the indexed cluster must reproduce it byte for
byte.  The full scan itself lives here as the reference: every registered
state, in registration order (``scan_candidates``).
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.db.changestream import ChangeEvent, OperationType
from repro.db.query import Query
from repro.invalidb.cluster import InvaliDBCluster
from repro.invalidb.index import QueryStateIndex, equality_predicate
from repro.invalidb.matching import QueryMatchState

#: SHA-256 of the golden scenario's serialized notification stream, captured
#: from the pre-index implementation (a full scan over every state).
GOLDEN_STREAM_SHA256 = "11c00ff1929a54b7d7a45b2a792f949d7c7c036ea98a1194b436d201cee935a0"
GOLDEN_STREAM_LENGTH = 429


def make_event(sequence, doc_id, after, before=None, collection="posts", operation=None):
    if operation is None:
        if after is None:
            operation = OperationType.DELETE
        elif before is None:
            operation = OperationType.INSERT
        else:
            operation = OperationType.UPDATE
    return ChangeEvent(
        sequence=sequence,
        operation=operation,
        collection=collection,
        document_id=doc_id,
        before=before,
        after=after,
        timestamp=float(sequence),
    )


def build_index(queries):
    index = QueryStateIndex()
    for query in queries:
        state = QueryMatchState(query)
        state.initialize([])
        index.register(query, state)
    return index


def scan_candidates(index, event):
    """The reference full scan: every registered state, in registration order."""
    return index.states()


def candidate_keys(index, event, candidates=QueryStateIndex.candidates):
    return [state.query_key for state in candidates(index, event)]


def use_full_scan(cluster):
    """Make every index of ``cluster`` hand out the reference full scan."""
    for index in [node._index for node in cluster.nodes] + [cluster._stateful_states]:
        index.candidates = lambda event, index=index: scan_candidates(index, event)


class TestEqualityPredicateExtraction:
    def test_literal_and_dollar_eq(self):
        assert equality_predicate(Query("posts", {"category": 3})) == ("category", 3)
        assert equality_predicate(Query("posts", {"category": {"$eq": 3}})) == (
            "category",
            3,
        )

    def test_first_sorted_indexable_field_wins(self):
        predicate = equality_predicate(Query("posts", {"b": 1, "a": 2}))
        assert predicate == ("a", 2)

    def test_rejects_unsafe_values_and_paths(self):
        assert equality_predicate(Query("posts", {"a": None})) is None
        assert equality_predicate(Query("posts", {"a": float("nan")})) is None
        assert equality_predicate(Query("posts", {"a": [1, 2]})) is None
        assert equality_predicate(Query("posts", {"a.b": 1})) is None
        assert equality_predicate(Query("posts", {"views": {"$gte": 3}})) is None
        assert (
            equality_predicate(Query("posts", {"$or": [{"a": 1}, {"b": 2}]})) is None
        )

    def test_conjunction_with_extra_operators_still_indexable(self):
        query = Query("posts", {"category": 2, "views": {"$gte": 10}})
        assert equality_predicate(query) == ("category", 2)


class TestCandidatePruning:
    def test_collection_pruning(self):
        queries = [Query("posts", {"views": {"$gte": 1}}), Query("users", {"age": {"$gte": 1}})]
        index = build_index(queries)
        event = make_event(1, "p1", {"_id": "p1", "views": 5})
        assert candidate_keys(index, event) == [queries[0].cache_key]

    def test_equality_pruning_on_after_image(self):
        queries = [Query("posts", {"category": value}) for value in range(5)]
        index = build_index(queries)
        event = make_event(1, "p1", {"_id": "p1", "category": 3})
        assert candidate_keys(index, event) == [queries[3].cache_key]

    def test_before_image_keeps_remove_candidates(self):
        """A doc leaving category 2 must still reach the category-2 query."""
        queries = [Query("posts", {"category": value}) for value in range(5)]
        index = build_index(queries)
        event = make_event(
            2,
            "p1",
            {"_id": "p1", "category": 4},
            before={"_id": "p1", "category": 2},
        )
        assert candidate_keys(index, event) == [
            queries[2].cache_key,
            queries[4].cache_key,
        ]

    def test_delete_uses_before_image(self):
        queries = [Query("posts", {"category": value}) for value in range(5)]
        index = build_index(queries)
        event = make_event(3, "p1", None, before={"_id": "p1", "category": 1})
        assert candidate_keys(index, event) == [queries[1].cache_key]

    def test_array_containment_lookup(self):
        query = Query("posts", {"tags": "example"})
        other = Query("posts", {"tags": "unrelated"})
        index = build_index([query, other])
        event = make_event(1, "p1", {"_id": "p1", "tags": ["x", "example"]})
        assert candidate_keys(index, event) == [query.cache_key]

    def test_non_indexable_queries_always_scanned(self):
        scan_query = Query("posts", {"$or": [{"category": 1}, {"views": {"$lt": 5}}]})
        eq_query = Query("posts", {"category": 9})
        index = build_index([scan_query, eq_query])
        event = make_event(1, "p1", {"_id": "p1", "category": 0, "views": 100})
        assert candidate_keys(index, event) == [scan_query.cache_key]

    def test_candidates_preserve_registration_order(self):
        scan_query = Query("posts", {"views": {"$gte": 0}})
        eq_first = Query("posts", {"category": 1})
        eq_second = Query("posts", {"category": 1, "views": {"$gte": 5}})
        index = build_index([eq_first, scan_query, eq_second])
        event = make_event(1, "p1", {"_id": "p1", "category": 1, "views": 10})
        assert candidate_keys(index, event) == [
            eq_first.cache_key,
            scan_query.cache_key,
            eq_second.cache_key,
        ]

    def test_missing_before_image_falls_back_to_collection_scan(self):
        """UPDATE without a before-image cannot be pruned by value safely."""
        queries = [Query("posts", {"category": value}) for value in range(3)]
        queries.append(Query("users", {"category": 0}))
        index = build_index(queries)
        event = make_event(
            1, "p1", {"_id": "p1", "category": 0}, operation=OperationType.UPDATE
        )
        assert candidate_keys(index, event) == [query.cache_key for query in queries[:3]]

    def test_legacy_mode_scans_everything(self):
        """The reference scan visits every state; the index prunes to one."""
        queries = [Query("posts", {"category": 1}), Query("users", {"plan": "pro"})]
        index = build_index(queries)
        event = make_event(1, "p1", {"_id": "p1", "category": 1})
        assert candidate_keys(index, event, scan_candidates) == [
            query.cache_key for query in queries
        ]
        assert candidate_keys(index, event) == [queries[0].cache_key]


class TestIndexMaintenance:
    def test_deregister_removes_all_entries(self):
        query = Query("posts", {"category": 1})
        index = build_index([query])
        assert index.deregister(query.cache_key)
        assert not index.deregister(query.cache_key)
        assert len(index) == 0
        event = make_event(1, "p1", {"_id": "p1", "category": 1})
        assert index.candidates(event) == []
        assert index._eq_index == {}
        assert index._scan_bucket == {}
        assert index._placement == {}

    def test_reregistration_replaces_state_in_place(self):
        query = Query("posts", {"category": 1})
        index = build_index([query])
        replacement = QueryMatchState(query)
        replacement.initialize([])
        index.register(query, replacement)
        assert len(index) == 1
        assert index.get(query.cache_key) is replacement

    def test_reregistration_keeps_candidate_order_identical_to_scan(self):
        """In-place replacement must not reorder candidates vs the full scan."""
        queries = [
            Query("posts", {"views": {"$gte": 0}}),  # scan bucket
            Query("posts", {"category": 1}),  # eq index
            Query("posts", {"views": {"$lte": 100}}),  # scan bucket
            Query("posts", {"category": 1, "views": {"$gte": 5}}),  # eq index
        ]
        index = build_index(queries)
        replacement = QueryMatchState(queries[0])
        replacement.initialize([])
        index.register(queries[0], replacement)
        event = make_event(1, "p1", {"_id": "p1", "category": 1, "views": 10})
        assert candidate_keys(index, event) == candidate_keys(index, event, scan_candidates)

    def test_cluster_register_deregister_keeps_index_consistent(self):
        cluster = InvaliDBCluster(matching_nodes=2)
        queries = [Query("posts", {"category": value}) for value in range(10)]
        for query in queries:
            cluster.register_query(query, [])
        for query in queries[:5]:
            assert cluster.deregister_query(query.cache_key)
        event = make_event(
            1, "p1", {"_id": "p1", "category": 7}, before={"_id": "p1", "category": 2}
        )
        notifications = cluster.process_event(event)
        assert [n.query_key for n in notifications] == [queries[7].cache_key]


def golden_queries():
    queries = []
    for category in range(8):
        queries.append(Query("posts", {"category": category}))
    queries.append(Query("posts", {"tags": "example"}))
    queries.append(Query("posts", {"views": {"$gte": 50}}))
    queries.append(Query("posts", {"$or": [{"category": 1}, {"views": {"$lt": 5}}]}))
    queries.append(Query("posts", {"category": {"$eq": 2}, "views": {"$gte": 10}}))
    queries.append(Query("posts", {"category": 3}, sort=[("views", -1)], limit=3))
    queries.append(Query("users", {"plan": "pro"}))
    queries.append(Query("users", {"plan": "free"}, sort=[("age", 1)], limit=2, offset=1))
    return queries


def golden_events(steps=160):
    rng = random.Random(1234)
    documents = {}
    events = []
    sequence = 0
    for step in range(steps):
        sequence += 1
        timestamp = float(step)
        if step % 11 == 0 and documents:
            doc_id = rng.choice(sorted(documents))
            collection, before = documents.pop(doc_id)
            events.append(
                ChangeEvent(
                    sequence,
                    OperationType.DELETE,
                    collection,
                    doc_id,
                    before,
                    None,
                    timestamp,
                )
            )
            continue
        collection = "posts" if rng.random() < 0.7 else "users"
        if collection == "posts":
            doc_id = f"p{rng.randrange(40)}"
            after = {
                "_id": doc_id,
                "category": rng.randrange(8),
                "views": rng.randrange(100),
                "tags": ["example"] if rng.random() < 0.3 else ["other"],
            }
        else:
            doc_id = f"u{rng.randrange(20)}"
            after = {
                "_id": doc_id,
                "plan": rng.choice(["pro", "free"]),
                "age": rng.randrange(70),
            }
        previous = documents.get(doc_id)
        if previous is None:
            events.append(
                ChangeEvent(
                    sequence,
                    OperationType.INSERT,
                    collection,
                    doc_id,
                    None,
                    after,
                    timestamp,
                )
            )
        else:
            events.append(
                ChangeEvent(
                    sequence,
                    OperationType.UPDATE,
                    collection,
                    doc_id,
                    previous[1],
                    after,
                    timestamp,
                )
            )
        documents[doc_id] = (collection, after)
    return events


def run_golden_stream():
    cluster = InvaliDBCluster(matching_nodes=4)
    for query in golden_queries():
        cluster.register_query(query, [])
    stream = []
    for event in golden_events():
        for notification in cluster.process_event(event):
            stream.append(
                [
                    notification.query_key,
                    notification.type.value,
                    notification.document_id,
                    notification.timestamp,
                    notification.new_index,
                ]
            )
    return stream


class TestGoldenNotificationStream:
    def test_stream_matches_pre_index_capture(self):
        """The indexed cluster replays the captured stream byte for byte."""
        stream = run_golden_stream()
        assert len(stream) == GOLDEN_STREAM_LENGTH
        payload = json.dumps(stream, separators=(",", ":")).encode()
        assert hashlib.sha256(payload).hexdigest() == GOLDEN_STREAM_SHA256

    def test_indexed_mode_touches_fewer_states(self):
        def total_ops(indexed):
            cluster = InvaliDBCluster(matching_nodes=4)
            if not indexed:
                use_full_scan(cluster)
            for query in golden_queries():
                cluster.register_query(query, [])
            for event in golden_events():
                cluster.process_event(event)
            return sum(node.match_operations for node in cluster.nodes)

        assert total_ops(True) < total_ops(False)
