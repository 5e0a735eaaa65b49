"""Two-phase scatter admission: a rejecting shard leaves zero state anywhere.

The regression this guards: the old scatter path admitted and registered on
every shard *before* knowing whether all shards admit, so one shard rejecting
at capacity made the others occupy admission slots, InvaliDB registrations
and active-list entries for a merged result that (min-TTL wins) was never
cached.  With two-phase admission the scatter probes first and commits only
when every shard admits.
"""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.cluster import ClusterClient, QuaestorCluster
from repro.core import QuaestorConfig
from repro.db import Query

DOCUMENTS = [
    {"_id": f"doc-{index:03d}", "category": index % 4, "views": (index * 53) % 89}
    for index in range(48)
]

QUERIES = [
    Query("posts", {"category": 1}),
    Query("posts", {"views": {"$gt": 30}}, sort=(("views", -1), ("_id", 1)), limit=6),
    Query("posts", {}, limit=5, offset=2),
]


def build_cluster(num_shards: int = 4, **config_kwargs) -> QuaestorCluster:
    config = QuaestorConfig(**config_kwargs) if config_kwargs else None
    cluster = QuaestorCluster(num_shards=num_shards, clock=VirtualClock(), config=config)
    facade = ClusterClient(cluster)
    for document in DOCUMENTS:
        facade.handle_insert("posts", dict(document))
    return cluster


def saturate_shard(cluster: QuaestorCluster, shard_id: int) -> None:
    """Fill one shard's single admission slot with an undisplaceable query."""
    capacity = cluster.groups[shard_id].server.capacity
    capacity.commit(capacity.probe("hot-query"))
    for _ in range(100):
        capacity.record_read("hot-query", result_size=0)


def assert_no_bookkeeping(cluster: QuaestorCluster, cache_key: str) -> None:
    for shard in cluster.groups:
        server = shard.server
        assert not server.invalidb.is_registered(cache_key), shard.shard_id
        assert cache_key not in server.capacity._admitted, shard.shard_id
        assert server.active_list.get(cache_key) is None, shard.shard_id


class TestScatterAbortInvariant:
    @pytest.mark.parametrize("query", QUERIES, ids=[q.cache_key for q in QUERIES])
    @pytest.mark.parametrize("rejecting_shard", [0, 2])
    def test_one_rejecting_shard_leaves_zero_state_on_all_shards(
        self, query, rejecting_shard
    ):
        cluster = build_cluster(max_active_queries=1)
        saturate_shard(cluster, rejecting_shard)

        response = cluster.query(query)

        assert not response.is_cacheable
        assert_no_bookkeeping(cluster, query.cache_key)
        # The saturated shard keeps its original occupant untouched.
        assert "hot-query" in cluster.groups[rejecting_shard].server.capacity._admitted

    def test_abort_is_observable_in_metrics(self):
        cluster = build_cluster(max_active_queries=1)
        saturate_shard(cluster, 1)
        query = QUERIES[0]
        cluster.query(query)

        assert cluster.counters.get("scatter_queries_aborted") == 1
        snapshot = cluster.statistics()
        assert snapshot["cluster_scatter_queries_aborted"] == 1
        assert snapshot["scatter_abort_rate"] == pytest.approx(1.0)
        # Every shard that probed successfully recorded the wasted probe.
        assert snapshot["admission_aborts"] == cluster.num_shards - 1
        assert snapshot["shard_queries_aborted"] == cluster.num_shards - 1

    def test_all_admitting_shards_commit_and_cache(self):
        cluster = build_cluster()
        query = QUERIES[0]
        response = cluster.query(query)

        assert response.is_cacheable
        for shard in cluster.groups:
            server = shard.server
            assert server.invalidb.is_registered(query.cache_key)
            assert query.cache_key in server.capacity._admitted
            assert server.active_list.get(query.cache_key) is not None
        assert cluster.counters.get("scatter_queries_aborted") == 0
        assert cluster.statistics()["scatter_abort_rate"] == 0.0

    def test_rejection_still_serves_the_merged_documents(self):
        cluster = build_cluster(max_active_queries=1)
        saturate_shard(cluster, 0)
        query = QUERIES[0]

        rejected = cluster.query(query)
        reference = build_cluster().query(query)

        assert rejected.body["documents"] == reference.body["documents"]

    def test_later_scatter_succeeds_once_capacity_frees_up(self):
        cluster = build_cluster(max_active_queries=1)
        saturate_shard(cluster, 0)
        query = QUERIES[0]
        assert not cluster.query(query).is_cacheable

        del cluster.groups[0].server.capacity._admitted["hot-query"]
        assert cluster.query(query).is_cacheable
        assert_registered_everywhere = all(
            shard.server.invalidb.is_registered(query.cache_key)
            for shard in cluster.groups
        )
        assert assert_registered_everywhere

    def test_abort_retains_registrations_committed_by_an_earlier_scatter(self):
        """Previously cached merges must stay invalidatable after an abort.

        When a key a shard *already admitted* (an earlier scatter committed
        it) is re-scattered and another shard now rejects, the fleet-wide
        abort keeps the old shards' registrations: caches may still hold the
        earlier merged result within its TTL, and only a live InvaliDB
        registration turns writes into the invalidations the staleness bound
        depends on.
        """
        cluster = build_cluster(max_active_queries=1)
        query = QUERIES[0]
        assert cluster.query(query).is_cacheable  # committed everywhere

        # Shard 0 later loses the slot to a hotter query.
        capacity = cluster.groups[0].server.capacity
        del capacity._admitted[query.cache_key]
        saturate_shard(cluster, 0)

        rescatter = cluster.query(query)

        assert not rescatter.is_cacheable
        for shard in cluster.groups[1:]:
            # Deliberate retention: the earlier merge may still be cached.
            assert shard.server.invalidb.is_registered(query.cache_key)
            assert query.cache_key in shard.server.capacity._admitted
        assert query.cache_key not in cluster.groups[0].server.capacity._admitted
        # Retained probes of already-admitted keys are not wasted work.
        assert cluster.statistics()["admission_aborts"] == 0

    def test_caching_disabled_scatter_is_not_counted_as_abort(self):
        cluster = build_cluster(caching=False)
        response = cluster.query(QUERIES[0])
        assert not response.is_cacheable
        assert cluster.counters.get("scatter_queries_aborted") == 0
        assert cluster.statistics()["scatter_abort_rate"] == 0.0
