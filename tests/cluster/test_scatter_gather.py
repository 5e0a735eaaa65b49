"""Cross-shard query scatter/gather: merge correctness and header merging."""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.cluster import ClusterClient, QuaestorCluster
from repro.core import QuaestorConfig, QuaestorServer
from repro.db import Database, Query
from repro.db.query import record_key
from repro.invalidb import AdmissionTicket, InvaliDBCluster
from repro.rest.messages import StatusCode
from repro.ttl.static import StaticTTLEstimator

DOCUMENTS = [
    {
        "_id": f"doc-{index:03d}",
        "category": index % 5,
        "views": (index * 37) % 101,
        "tags": ["example"] if index % 2 == 0 else ["other"],
    }
    for index in range(60)
]


def build_cluster(num_shards: int = 4, clock: VirtualClock = None) -> QuaestorCluster:
    clock = clock if clock is not None else VirtualClock()
    cluster = QuaestorCluster(num_shards=num_shards, clock=clock, matching_nodes=2)
    facade = ClusterClient(cluster)
    for document in DOCUMENTS:
        facade.handle_insert("posts", dict(document))
    return cluster


def build_reference(clock: VirtualClock = None) -> QuaestorServer:
    clock = clock if clock is not None else VirtualClock()
    database = Database(clock=clock)
    server = QuaestorServer(database, invalidb=InvaliDBCluster(matching_nodes=2))
    for document in DOCUMENTS:
        server.handle_insert("posts", dict(document))
    return server


QUERIES = [
    Query("posts", {"category": 2}),
    Query("posts", {"views": {"$gt": 50}}),
    Query("posts", {}, sort=(("views", -1), ("_id", 1)), limit=7),
    Query("posts", {"tags": "example"}, sort=(("views", 1),), limit=5, offset=3),
    Query("posts", {"category": {"$in": [0, 4]}}, offset=10),
    Query("posts", {"category": 99}),  # empty result
]


class TestMergeCorrectness:
    @pytest.mark.parametrize("query", QUERIES, ids=[q.cache_key for q in QUERIES])
    def test_merged_result_matches_single_node(self, query):
        cluster = build_cluster()
        reference = build_reference()

        merged = ClusterClient(cluster).handle_query(query)
        expected = reference.handle_query(query)

        assert merged.status == StatusCode.OK
        assert merged.body["ids"] == expected.body["ids"]
        if "documents" in expected.body:
            assert merged.body["documents"] == expected.body["documents"]
        assert merged.body["representation"] == expected.body["representation"]

    def test_merged_result_is_identical_for_any_shard_count(self):
        query = Query("posts", {}, sort=(("views", -1),), limit=9, offset=2)
        results = [
            ClusterClient(build_cluster(num_shards=shards)).handle_query(query).body["ids"]
            for shards in (1, 2, 4, 8)
        ]
        assert all(ids == results[0] for ids in results)

    def test_tied_sort_keys_window_identically_on_any_topology(self):
        # Regression: with tied sort keys the window must not depend on
        # insertion or shard-concatenation order -- ties break by _id.
        docs = [{"_id": f"tied-{i:02d}", "views": 5} for i in range(12)]
        query = Query("tied", {}, sort=(("views", 1),), limit=3)

        reference = build_reference()
        for doc in docs:
            reference.handle_insert("tied", dict(doc))
        expected = reference.handle_query(query).body["ids"]

        for shards in (1, 2, 4):
            cluster = build_cluster(num_shards=shards)
            facade = ClusterClient(cluster)
            for doc in docs:
                facade.handle_insert("tied", dict(doc))
            assert facade.handle_query(query).body["ids"] == expected, shards

    def test_missing_collection_raises_like_single_node(self):
        from repro.errors import CollectionNotFoundError

        cluster = build_cluster()
        with pytest.raises(CollectionNotFoundError):
            ClusterClient(cluster).handle_query(Query("nope", {}))

    def test_repeated_windowed_scatter_reuses_the_shards_memoised_results(self):
        # Each windowed scatter builds a fresh fetch-window query; it must
        # share the client query's compiled plan, or every repeat would file
        # a new, never-hit entry in every shard's result memo.
        cluster = build_cluster()
        collections = [shard.database.collection("posts") for shard in cluster.groups]
        for collection in collections:
            collection.create_index("category")
        query = Query("posts", {"category": 2}, sort=(("views", 1),), limit=3, offset=1)
        facade = ClusterClient(cluster)
        first = facade.handle_query(query).body["ids"]  # compiles the client query's plan
        facade.handle_query(query)
        memoised = [dict(collection._results) for collection in collections]
        for _ in range(3):
            assert facade.handle_query(query).body["ids"] == first
        assert [collection._results for collection in collections] == memoised


class TestCacheControlMerging:
    def test_min_ttl_wins_across_shards(self):
        cluster = build_cluster(num_shards=4)
        # Distinct fixed TTLs per shard: the merged header must carry the
        # smallest one (no cache may outlive the least durable sub-result).
        for shard, ttl in zip(cluster.groups, (40.0, 10.0, 80.0, 25.0)):
            shard.server.ttl_estimator = StaticTTLEstimator(ttl=ttl)

        response = ClusterClient(cluster).handle_query(Query("posts", {"category": 1}))
        assert response.is_cacheable
        assert response.ttl_for(shared=False) == pytest.approx(10.0)
        cdn_factor = cluster.config.cdn_ttl_factor
        assert response.ttl_for(shared=True) == pytest.approx(10.0 * cdn_factor)

    def test_one_uncacheable_shard_makes_the_merge_uncacheable(self):
        cluster = build_cluster(num_shards=3)
        # Shard 1 rejects the query at admission (capacity exhausted).
        cluster.groups[1].server.capacity.probe = lambda key, result_size=0: AdmissionTicket(
            key, result_size, admitted=False
        )

        response = ClusterClient(cluster).handle_query(Query("posts", {"category": 1}))
        assert not response.is_cacheable
        assert response.ttl_for(shared=False) == 0.0
        # The documents are still served, just not cacheable.
        assert response.body["documents"]

    def test_merged_response_carries_a_merged_etag(self):
        cluster = build_cluster()
        query = Query("posts", {"category": 3})
        first = ClusterClient(cluster).handle_query(query)
        second = ClusterClient(cluster).handle_query(query)
        assert first.etag is not None
        assert first.etag == second.etag  # deterministic across identical states


class TestCrossShardInvalidation:
    def test_write_on_any_shard_flags_the_merged_query(self):
        clock = VirtualClock()
        cluster = build_cluster(num_shards=4, clock=clock)
        facade = ClusterClient(cluster)
        query = Query("posts", {"category": 2})

        facade.handle_query(query)
        before = facade.get_bloom_filter()
        assert not before.contains(query.cache_key)

        # Update a member record (wherever it lives) so the result changes.
        member_id = facade.handle_query(query).body["ids"][0]
        facade.handle_update("posts", member_id, {"$set": {"category": 0}})

        after = facade.get_bloom_filter()
        assert after.contains(query.cache_key)

    def test_offset_window_invalidations_are_not_missed(self):
        # Regression: the per-shard InvaliDB registration must use the
        # scatter window (offset 0), not the client's offset.  A document in
        # the *global* window whose shard-local rank lies below the offset
        # would otherwise never trigger a notification, and the merged cached
        # result would serve stale for its full TTL.
        clock = VirtualClock()
        cluster = build_cluster(num_shards=4, clock=clock)
        facade = ClusterClient(cluster)
        query = Query("posts", {}, sort=(("views", -1),), limit=5, offset=5)

        window_ids = facade.handle_query(query).body["ids"]
        assert len(window_ids) == 5

        # Pick a window member whose local rank on its shard is below the
        # offset (with 4 shards and a global rank < 10, one always exists).
        victim = None
        for document_id in window_ids:
            shard = cluster.groups[cluster.router.ring.shard_for(record_key("posts", document_id))]
            local = shard.database.find(Query("posts", {}, sort=(("views", -1),)))
            local_rank = [str(doc["_id"]) for doc in local].index(document_id)
            if local_rank < query.offset:
                victim = document_id
                break
        assert victim is not None, "test setup must yield a low-local-rank window member"

        facade.handle_update("posts", victim, {"$set": {"category": 77}})
        assert facade.get_bloom_filter().contains(query.cache_key), (
            "content change inside the global window must invalidate the merged query"
        )

    def test_tied_window_change_invalidates_everywhere(self):
        # Regression: InvaliDB's stateful window must order ties exactly like
        # the served result (total_sort_key), otherwise a new tied document
        # entering the visible window never produces a notification and the
        # cached window stays stale for its full TTL.
        for shards in (1, 4):
            clock = VirtualClock()
            cluster = QuaestorCluster(num_shards=shards, clock=clock, matching_nodes=2)
            facade = ClusterClient(cluster)
            for document_id in ("b", "c", "d"):
                facade.handle_insert("tied", {"_id": document_id, "views": 5})
            query = Query("tied", {}, sort=(("views", 1),), limit=2)
            assert facade.handle_query(query).body["ids"] == ["b", "c"]

            # 'a' ties on views but enters the window by _id order.
            facade.handle_insert("tied", {"_id": "a", "views": 5})
            assert facade.get_bloom_filter().contains(query.cache_key), shards
            assert facade.handle_query(query).body["ids"] == ["a", "b"], shards

    def test_union_bloom_filter_sees_invalidations_from_all_shards(self):
        clock = VirtualClock()
        cluster = build_cluster(num_shards=4, clock=clock)
        facade = ClusterClient(cluster)

        # Touch one record per shard so every shard issues a cacheable read,
        # then invalidate them all; the union filter must contain every key.
        per_shard_ids = {}
        for document in DOCUMENTS:
            shard = cluster.router.ring.shard_for(record_key("posts", document["_id"]))
            per_shard_ids.setdefault(shard, document["_id"])
            if len(per_shard_ids) == cluster.num_shards:
                break
        assert len(per_shard_ids) == cluster.num_shards

        for document_id in per_shard_ids.values():
            facade.handle_read("posts", document_id)
            facade.handle_update("posts", document_id, {"$inc": {"views": 1}})

        union = facade.get_bloom_filter()
        for document_id in per_shard_ids.values():
            assert union.contains(record_key("posts", document_id))
