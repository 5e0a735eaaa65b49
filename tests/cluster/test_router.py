"""Shard router tests: distribution uniformity and routing stability."""

from __future__ import annotations

import pytest

from repro.cluster.router import ShardRouter
from repro.db.query import record_key
from repro.db.sharding import ConsistentHashRing
from repro.workloads.operations import Operation, OperationType


def document_ids(count: int) -> list:
    return [f"doc-{index}" for index in range(count)]


def keys(count: int) -> list:
    return [record_key("posts", document_id) for document_id in document_ids(count)]


class TestDistributionUniformity:
    def test_sequential_keys_spread_evenly_over_shards(self):
        router = ShardRouter(num_shards=8)
        counts = router.distribution(keys(40_000))
        mean = 40_000 / 8
        # Consistent hashing with 64 vnodes lands each shard well within a
        # factor of two of the fair share even for adversarially similar keys.
        for shard_id, count in counts.items():
            assert 0.5 * mean < count < 2.0 * mean, (shard_id, count)

    def test_every_shard_receives_keys(self):
        router = ShardRouter(num_shards=4)
        counts = router.distribution(keys(5_000))
        assert set(counts) == {0, 1, 2, 3}
        assert all(count > 0 for count in counts.values())

    def test_placement_is_deterministic(self):
        first = ShardRouter(num_shards=4)
        second = ShardRouter(num_shards=4)
        for document_id in document_ids(500):
            assert first.shard_for_record("posts", document_id) == second.shard_for_record(
                "posts", document_id
            )


class TestRoutingStability:
    def test_removing_a_shard_only_moves_its_own_keys(self):
        ring = ConsistentHashRing(range(8))
        sample = keys(5_000)
        before = {key: ring.shard_for(key) for key in sample}

        ring.remove_shard(3)
        after = {key: ring.shard_for(key) for key in sample}

        for key in sample:
            if before[key] != 3:
                # Keys not owned by the removed shard must not move at all.
                assert after[key] == before[key]
            else:
                assert after[key] != 3

    def test_adding_a_shard_only_steals_keys_for_itself(self):
        ring = ConsistentHashRing(range(8))
        sample = keys(5_000)
        before = {key: ring.shard_for(key) for key in sample}

        ring.add_shard(8)
        after = {key: ring.shard_for(key) for key in sample}

        moved = {key for key in sample if after[key] != before[key]}
        assert moved, "a ninth shard must take over some keys"
        assert all(after[key] == 8 for key in moved)
        # Roughly 1/9 of the keys should move (well below the 1/2 a modulo
        # placement would reshuffle when going from 8 to 9 shards).
        assert len(moved) < 0.25 * len(sample)

    def test_add_then_remove_restores_the_original_placement(self):
        ring = ConsistentHashRing(range(4))
        sample = keys(2_000)
        before = {key: ring.shard_for(key) for key in sample}
        ring.add_shard(4)
        ring.remove_shard(4)
        assert {key: ring.shard_for(key) for key in sample} == before

    def test_remove_unknown_shard_raises(self):
        ring = ConsistentHashRing(range(2))
        with pytest.raises(KeyError):
            ring.remove_shard(9)

    def test_empty_ring_rejects_placement(self):
        ring = ConsistentHashRing()
        with pytest.raises(ValueError):
            ring.shard_for("record:posts/doc-1")


class TestOperationRouting:
    def test_record_operations_route_to_owning_shard(self):
        router = ShardRouter(num_shards=4)
        operation = Operation(
            type=OperationType.UPDATE,
            collection="posts",
            document_id="doc-7",
            payload={"$inc": {"views": 1}},
        )
        assert router.shard_for_operation(operation) == router.shard_for_record(
            "posts", "doc-7"
        )

    def test_queries_have_no_single_owner(self):
        from repro.db.query import Query

        router = ShardRouter(num_shards=4)
        operation = Operation(
            type=OperationType.QUERY, collection="posts", query=Query("posts", {})
        )
        with pytest.raises(ValueError):
            router.shard_for_operation(operation)

    def test_group_writes_preserves_order_and_positions(self):
        router = ShardRouter(num_shards=4)
        operations = [
            Operation(
                type=OperationType.UPDATE,
                collection="posts",
                document_id=f"doc-{index}",
                payload={"$inc": {"views": 1}},
            )
            for index in range(50)
        ]
        grouped = router.group_writes(operations)
        seen = sorted(index for batch in grouped.values() for index, _op in batch)
        assert seen == list(range(50))
        for shard_id, batch in grouped.items():
            indexes = [index for index, _op in batch]
            assert indexes == sorted(indexes), "per-shard order must follow request order"
            for _index, operation in batch:
                assert router.shard_for_operation(operation) == shard_id

    def test_group_writes_rejects_reads(self):
        router = ShardRouter(num_shards=2)
        read = Operation(type=OperationType.READ, collection="posts", document_id="doc-1")
        with pytest.raises(ValueError):
            router.group_writes([read])

    def test_readded_shard_starts_with_fresh_counters(self):
        router = ShardRouter(num_shards=2)
        for index in range(100):
            router.record_write("posts", f"doc-{index}")
        router.remove_shard(1)
        router.add_shard(1)
        by_shard = {stats.shard_id: stats.operations for stats in router.statistics()}
        assert by_shard[1] == 0, "pre-removal traffic must not resurrect"

    def test_routing_statistics_track_imbalance(self):
        router = ShardRouter(num_shards=2)
        assert router.imbalance() == 1.0
        for index in range(200):
            router.record_read("posts", f"doc-{index}")
            router.record_write("posts", f"doc-{index}")
        totals = {stats.shard_id: stats.operations for stats in router.statistics()}
        assert sum(totals.values()) == 400
        assert router.imbalance() < 2.0

    def test_router_uses_the_shared_statistics_table(self):
        """The router's imbalance figure is the shared statistics table's."""
        from repro.db.sharding import ShardStatisticsTable

        router = ShardRouter(num_shards=3)
        assert isinstance(router._statistics, ShardStatisticsTable)
        for index in range(120):
            router.record_write("posts", f"doc-{index}")
        assert router.imbalance() == router._statistics.imbalance(router.shard_ids())


class TestRuntimeMembership:
    """Runtime shard removal and re-addition at the *router* level.

    Failover (repro.replication) and elastic scaling both need the router to
    take a shard out of rotation and bring it back while requests are in
    flight; the regression asserted here is that only the departed shard's
    key ranges ever move.
    """

    def test_remove_and_readd_moves_only_the_departed_shards_ranges(self):
        router = ShardRouter(num_shards=8)
        sample = document_ids(5_000)
        before = {key: router.shard_for_record("posts", key) for key in sample}

        router.remove_shard(5)
        during = {key: router.shard_for_record("posts", key) for key in sample}
        for key in sample:
            if before[key] != 5:
                assert during[key] == before[key], "only shard 5's keys may move"
            else:
                assert during[key] != 5

        router.add_shard(5)
        after = {key: router.shard_for_record("posts", key) for key in sample}
        # Virtual-node positions are a pure hash of (shard, replica), so a
        # re-added shard reclaims exactly its old ranges: full round trip.
        assert after == before

    def test_membership_changes_are_reflected_in_shard_ids(self):
        router = ShardRouter(num_shards=4)
        assert router.shard_ids() == [0, 1, 2, 3]
        router.remove_shard(2)
        assert router.shard_ids() == [0, 1, 3]
        assert router.num_shards == 3
        router.add_shard(2)
        assert router.shard_ids() == [0, 1, 2, 3]

    def test_routing_statistics_survive_other_shards_departure(self):
        router = ShardRouter(num_shards=3)
        # Route traffic, then remove an unrelated shard: surviving counters
        # must be untouched (imbalance stays well-defined).
        for index in range(300):
            router.record_read("posts", f"doc-{index}")
        totals_before = {
            stats.shard_id: stats.operations for stats in router.statistics()
        }
        victim = 0
        router.remove_shard(victim)
        for stats in router.statistics():
            assert stats.operations == totals_before[stats.shard_id]

    def test_add_shard_is_idempotent(self):
        router = ShardRouter(num_shards=2)
        router.add_shard(1)  # already present: no-op
        assert router.shard_ids() == [0, 1]
