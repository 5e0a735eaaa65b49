"""Cluster-level replication: degraded scatter, failover rebuild, metrics."""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.cluster import ClusterClient, QuaestorCluster
from repro.core import ConsistencyLevel
from repro.db.query import Query
from repro.obs import TraceRecorder
from repro.replication import ReplicationConfig
from repro.rest.messages import StatusCode
from repro.simulation.latency import LatencyModel


def build_cluster(num_shards=2, replication_factor=2, lag_mean=0.01, clock=None):
    clock = clock if clock is not None else VirtualClock()
    replication = ReplicationConfig(
        replication_factor=replication_factor,
        lag=LatencyModel(mean=lag_mean, jitter=0.0),
    )
    cluster = QuaestorCluster(
        num_shards=num_shards, clock=clock, matching_nodes=2, replication=replication
    )
    facade = ClusterClient(cluster)
    for index in range(40):
        facade.handle_insert(
            "posts", {"_id": f"p{index:02d}", "category": index % 4, "views": index}
        )
    clock.advance(1.0)
    return clock, cluster, facade


class TestScatterDegradation:
    def test_one_dead_shard_yields_structured_errors_not_exceptions(self):
        clock, cluster, facade = build_cluster()
        query = Query("posts", {"category": 1})
        complete = facade.handle_query(query)

        cluster.crash_node(cluster.groups[0].primary_node_id)
        degraded = facade.handle_query(query)

        assert degraded.status is StatusCode.OK
        assert degraded.body["shard_errors"] == {0: "primary-unavailable"}
        assert not degraded.is_cacheable
        # The surviving shard still contributes its sub-result.
        surviving = set(degraded.body["ids"])
        assert surviving and surviving <= set(complete.body["ids"])

    def test_degraded_scatter_is_counted_in_cluster_metrics(self):
        clock, cluster, facade = build_cluster()
        query = Query("posts", {"category": 2})
        facade.handle_query(query)
        cluster.crash_node(cluster.groups[1].primary_node_id)
        facade.handle_query(query)
        facade.handle_query(query)

        stats = cluster.statistics()
        assert stats["cluster_scatter_queries_degraded"] == 2
        assert stats["cluster_scatter_shard_errors"] == 2
        assert stats["shard_error_rate"] == pytest.approx(2 / 3)

    def test_all_shards_down_returns_503(self):
        clock, cluster, facade = build_cluster(num_shards=2, replication_factor=1)
        for group in cluster.groups:
            cluster.crash_node(group.primary_node_id)
        response = facade.handle_query(Query("posts", {"category": 0}))
        assert response.status is StatusCode.SERVICE_UNAVAILABLE
        assert response.body["error"] == "unavailable"

    def test_degraded_merge_does_not_whitelist_a_stale_cached_result(self):
        # Regression: a partial merge served during an outage must not mark
        # the query key fresh client-side -- the EBF flagged it stale, and a
        # cached full result would otherwise be served as fresh without the
        # revalidation the flag demanded (fail-incorrect).
        from repro.client import QuaestorClient

        clock, cluster, facade = build_cluster()
        client = QuaestorClient(facade, clock=clock, refresh_interval=0.5)
        client.connect()
        query = Query("posts", {"category": 1})
        full = client.query(query)
        assert len(full.value) == 10

        # A member write flags the query key; refresh the client's EBF copy
        # (within the flag's lifetime, past the refresh interval).
        member = next(doc["_id"] for doc in full.value)
        client.update("posts", member, {"$set": {"title": "new"}})
        clock.advance(0.6)
        client.refresh_bloom_filter()
        assert client._bloom.contains(query.cache_key)

        # Outage: the revalidation yields a degraded partial merge.
        cluster.crash_node(cluster.groups[0].primary_node_id)
        degraded = client.query(query)
        assert query.cache_key not in client.whitelist, (
            "a partial merge must not whitelist the key as fresh"
        )
        # The next query still revalidates rather than trusting stale cache.
        assert client._bloom.contains(query.cache_key)
        assert query.cache_key not in client.whitelist

    def test_partial_id_list_assembly_is_marked_degraded(self):
        # Regression: a cached id-list shell whose member fetches hit a dead
        # shard yields a partial result; it must be counted degraded and
        # must not whitelist the query key as fresh.
        from repro.client import QuaestorClient
        from repro.core import QuaestorConfig
        from repro.db.query import record_key

        clock = VirtualClock()
        config = QuaestorConfig(object_list_max_size=0, assumed_record_hit_rate=0.99)
        cluster = QuaestorCluster(num_shards=2, clock=clock, matching_nodes=1, config=config)
        client = QuaestorClient(
            ClusterClient(cluster), clock=clock, refresh_interval=10.0
        )
        for index in range(12):
            client.insert("posts", {"_id": f"p{index}", "views": index})
        client.connect()
        query = Query("posts", {"views": {"$gt": 3}})
        n_full = len(client.query(query).value)
        assert n_full == 8

        cluster.crash_node(cluster.groups[0].primary_node_id)
        for index in range(12):
            client.client_cache.remove(record_key("posts", f"p{index}"))
        client.whitelist.reset()
        partial = client.query(query)
        assert partial.level == "client"  # the shell itself was a cache hit
        assert "error" in partial.extra_levels
        assert len(partial.value) < n_full
        assert client.counters.get("degraded_queries") >= 1
        assert query.cache_key not in client.whitelist

    def test_degraded_merge_is_not_recorded_as_authoritative(self):
        clock, cluster, facade = build_cluster()
        query = Query("posts", {"category": 3})
        facade.handle_query(query)
        timeline_before = list(cluster.auditor.timelines.get(query.cache_key, ()))
        cluster.crash_node(cluster.groups[0].primary_node_id)
        facade.handle_query(query)
        assert cluster.auditor.timelines.get(query.cache_key, []) == timeline_before


class TestClusterFailover:
    def test_failover_reroutes_reads_and_writes_to_the_promoted_server(self):
        clock, cluster, facade = build_cluster()
        victim = cluster.groups[0]
        old_server = victim.server
        cluster.crash_node(victim.primary_node_id)
        clock.advance(0.5)
        info = cluster.failover(0)
        assert info is not None
        assert victim.server is not old_server
        assert victim.server.database is victim.database

        # Writes owned by shard 0 succeed again.
        wrote = False
        for index in range(40):
            document_id = f"p{index:02d}"
            if cluster.router.shard_for_record("posts", document_id) != 0:
                continue
            response = facade.handle_update("posts", document_id, {"$inc": {"views": 1}})
            assert response.status is StatusCode.OK
            wrote = True
            break
        assert wrote

    def test_registered_queries_are_rebuilt_on_the_promoted_primary(self):
        clock, cluster, facade = build_cluster()
        query = Query("posts", {"category": 1})
        facade.handle_query(query)  # committed fleet-wide -> registered
        victim = cluster.groups[0]
        cluster.crash_node(victim.primary_node_id)
        clock.advance(0.5)
        cluster.failover(0)

        # The promoted server matches the query again: a write that changes
        # the result must flag the merged key in the union filter.
        assert victim.server.invalidb.is_registered(query.cache_key)
        member = None
        for index in range(40):
            document_id = f"p{index:02d}"
            if index % 4 == 1 and cluster.router.shard_for_record("posts", document_id) == 0:
                member = document_id
                break
        assert member is not None
        facade.handle_update("posts", member, {"$set": {"category": 0}})
        assert facade.get_bloom_filter().contains(query.cache_key)

    def test_failover_flags_registered_queries_stale(self):
        clock, cluster, facade = build_cluster()
        query = Query("posts", {"category": 2})
        facade.handle_query(query)
        victim = cluster.groups[0]
        cluster.crash_node(victim.primary_node_id)
        clock.advance(0.5)
        cluster.failover(0)
        # Fail-stale: cached merged results must revalidate after a failover.
        assert facade.get_bloom_filter().contains(query.cache_key)

    def test_replica_serves_delta_atomic_reads_through_the_outage(self):
        clock, cluster, facade = build_cluster()
        victim = cluster.groups[0]
        cluster.crash_node(victim.primary_node_id)
        served = 0
        for index in range(40):
            document_id = f"p{index:02d}"
            if cluster.router.shard_for_record("posts", document_id) != 0:
                continue
            response = facade.handle_read(
                "posts", document_id, consistency=ConsistencyLevel.DELTA_ATOMIC
            )
            assert response.status is StatusCode.OK
            served += 1
        assert served > 0

    def test_strong_reads_get_structured_503_during_the_outage(self):
        clock, cluster, facade = build_cluster()
        victim = cluster.groups[0]
        cluster.crash_node(victim.primary_node_id)
        got_503 = False
        for index in range(40):
            document_id = f"p{index:02d}"
            if cluster.router.shard_for_record("posts", document_id) != 0:
                continue
            response = facade.handle_read(
                "posts", document_id, consistency=ConsistencyLevel.STRONG
            )
            assert response.status is StatusCode.SERVICE_UNAVAILABLE
            assert response.body == {"error": "unavailable", "shard": 0}
            got_503 = True
            break
        assert got_503

    def test_promoted_server_keeps_purging_the_cdn(self):
        # Regression: a server installed by failover must be wired to the
        # same purge targets as the one it replaces, or CDN purges silently
        # stop for that shard after the first crash.
        clock, cluster, facade = build_cluster()
        purged = []
        cluster.register_purge_target(purged.append)
        member = None
        for index in range(40):
            document_id = f"p{index:02d}"
            if cluster.router.shard_for_record("posts", document_id) == 0:
                member = document_id
                break
        facade.handle_update("posts", member, {"$inc": {"views": 1}})
        assert purged, "sanity: purges fire before the crash"

        cluster.crash_node(cluster.groups[0].primary_node_id)
        clock.advance(0.5)
        cluster.failover(0)
        purged.clear()
        facade.handle_update("posts", member, {"$inc": {"views": 1}})
        assert f"record:posts/{member}" in purged

    def test_statistics_cover_the_pre_failover_tenure(self):
        clock, cluster, facade = build_cluster()
        for index in range(40):
            facade.handle_read("posts", f"p{index:02d}")
        reads_before = cluster.statistics()["reads"]
        cluster.crash_node(cluster.groups[0].primary_node_id)
        clock.advance(0.5)
        cluster.failover(0)
        # The retired server's counters are retained, not dropped.
        assert cluster.statistics()["reads"] == reads_before

    def test_a_retired_server_leaves_its_counters_but_not_its_gauges(self):
        clock, cluster, facade = build_cluster()
        facade.handle_query(Query("posts", {"category": 1}))
        group = cluster.groups[0]
        retiring = group.server.statistics()
        cluster.crash_node(group.primary_node_id)
        clock.advance(0.5)
        cluster.failover(0)
        assert group.retired_statistics["shard_queries"] == retiring["shard_queries"] == 1
        assert "active_queries" not in group.retired_statistics
        live = sum(shard.server.statistics()["active_queries"] for shard in cluster.groups)
        assert cluster.statistics()["active_queries"] == live

    def test_retired_counters_accumulate_over_successive_failovers(self):
        clock, cluster, facade = build_cluster(num_shards=1, replication_factor=3)
        group = cluster.groups[0]
        reads = 0
        for _round in range(2):
            for index in range(5):
                facade.handle_read("posts", f"p{index:02d}", consistency=ConsistencyLevel.STRONG)
            reads += group.server.statistics()["reads"]
            cluster.crash_node(group.primary_node_id)
            clock.advance(0.5)
            assert cluster.failover(0) is not None
        assert group.retired_statistics["reads"] == reads == 10
        assert cluster.statistics()["reads"] == reads

    def test_every_primary_carries_the_fleet_tracer(self):
        clock = VirtualClock()
        tracer = TraceRecorder(clock)
        cluster = QuaestorCluster(
            num_shards=2,
            clock=clock,
            replication=ReplicationConfig(replication_factor=2),
            tracer=tracer,
        )
        assert [group.server.tracer for group in cluster.groups] == [tracer, tracer]
        cluster.crash_node(cluster.groups[0].primary_node_id)
        clock.advance(0.5)
        cluster.failover(0)
        assert cluster.groups[0].server.tracer is tracer

    def test_recovering_candidate_ends_an_unresolved_outage(self):
        # Primary-less group with a rejoining replica: the cluster promotes
        # the freshest candidate instead of leaving the shard down forever.
        clock, cluster, facade = build_cluster(num_shards=1, replication_factor=2)
        group = cluster.groups[0]
        replica_id = group.replica_nodes()[0].node_id
        cluster.crash_node(replica_id)
        cluster.crash_node(group.primary_node_id)
        assert cluster.failover(0) is None  # nothing to promote
        clock.advance(1.0)
        shard_id, role = cluster.recover_node(replica_id)
        assert role == "primary"
        assert group.primary_alive
        response = facade.handle_read("posts", "p00")
        assert response.status is StatusCode.OK

    def test_rejoined_candidate_promotion_covers_collections_created_while_down(self):
        # Regression: a node that was down when a collection was materialised
        # may later resume service as primary; scatter queries must degrade
        # or serve, never raise CollectionNotFoundError through the cluster.
        clock, cluster, facade = build_cluster(num_shards=2, replication_factor=3)
        group = cluster.groups[0]
        cluster.crash_node("s0:n1")
        cluster.crash_node(group.primary_node_id)
        # Materialised while s0:n1 and s0:n0 are down (insert routes wherever).
        facade.handle_insert("newcoll", {"_id": "x", "views": 1})
        clock.advance(1.0)  # detection window long elapsed
        cluster.recover_node("s0:n1")
        assert group.primary_alive
        response = facade.handle_query(Query("newcoll", {}))
        assert response.status is StatusCode.OK

    def test_current_epoch_survivor_outranks_a_stale_rejoined_candidate(self):
        # Freshness is (epoch, sequence): a candidate rejoining with
        # old-epoch state must not outrank a survivor that followed the
        # promoted primary's stream, whatever its raw sequence number says.
        clock, cluster, facade = build_cluster(num_shards=1, replication_factor=3)
        group = cluster.groups[0]
        # n2 freezes holding epoch-0 state with a *high* sequence (all the
        # dataset inserts); every later epoch restarts sequences near zero.
        cluster.crash_node("s0:n2")
        cluster.crash_node("s0:n0")                      # primary down
        clock.advance(0.5)
        cluster.failover(0)                              # n1 promoted: epoch 1
        assert group.primary_node_id == "s0:n1"
        cluster.recover_node("s0:n0")                    # healthy rejoin: epoch 1
        facade.handle_update("posts", "p00", {"$inc": {"views": 1}})
        clock.advance(1.0)
        cluster.crash_node("s0:n1")                      # primary-less; n0 survives
        cluster.recover_node("s0:n2")                    # epoch-0 candidate rejoins
        clock.advance(1.0)
        info = cluster.failover(0)
        # On raw sequence the stale n2 would win (epoch-0 numbers are far
        # higher); the epoch comparison promotes the current-epoch n0.
        assert info["node_id"] == "s0:n0"

    def test_ebf_union_keeps_stale_flags_through_a_crash(self):
        clock, cluster, facade = build_cluster()
        # Read then invalidate a record on shard 0 so its key is stale.
        target = None
        for index in range(40):
            document_id = f"p{index:02d}"
            if cluster.router.shard_for_record("posts", document_id) == 0:
                target = document_id
                break
        facade.handle_read("posts", target)
        facade.handle_update("posts", target, {"$inc": {"views": 1}})
        key = f"record:posts/{target}"
        assert facade.get_bloom_filter().contains(key)

        cluster.crash_node(cluster.groups[0].primary_node_id)
        # Fail-stale: the flag must survive the crash (shared coherence tier).
        assert facade.get_bloom_filter().contains(key)
        clock.advance(0.5)
        cluster.failover(0)
        assert facade.get_bloom_filter().contains(key)


class TestShardOf:
    def test_a_node_id_names_its_shard(self):
        _clock, cluster, _facade = build_cluster(num_shards=2, replication_factor=2)
        node_ids = [node.node_id for group in cluster.groups for node in group.nodes]
        assert [cluster.shard_of(node_id) for node_id in node_ids] == [0, 0, 1, 1]

    @pytest.mark.parametrize(
        "node_id",
        ["s2:n0", "s0:n2", "shard:0", "bogus"],
        ids=["shard-out-of-range", "node-index-out-of-range", "role-target", "malformed"],
    )
    def test_a_node_id_no_group_holds_raises_key_error(self, node_id):
        _clock, cluster, _facade = build_cluster(num_shards=2, replication_factor=2)
        with pytest.raises(KeyError):
            cluster.shard_of(node_id)
