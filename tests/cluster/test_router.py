"""Shard router tests: distribution uniformity and routing stability."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.clock import VirtualClock
from repro.cluster.router import ShardRouter
from repro.db.query import record_key
from repro.db.sharding import ConsistentHashRing
from repro.obs import TraceRecorder


def document_ids(count: int) -> list:
    return [f"doc-{index}" for index in range(count)]


def keys(count: int) -> list:
    return [record_key("posts", document_id) for document_id in document_ids(count)]


def distribution(router: ShardRouter, sample: list) -> Counter:
    """Key counts per shard."""
    return Counter(router.ring.shard_for(key) for key in sample)


def route_counts(router: ShardRouter, counts: tuple) -> None:
    """Route ``counts[shard]`` requests to each shard, on ring-placed ids."""
    wanted = dict(enumerate(counts))
    for index, document_id in enumerate(document_ids(400)):
        shard_id = router.ring.shard_for(record_key("posts", document_id))
        if wanted[shard_id]:
            wanted[shard_id] -= 1
            op = "read" if index % 2 else "write"
            assert router.route(op, "posts", document_id) == shard_id
    assert not any(wanted.values()), wanted


class TestDistributionUniformity:
    def test_sequential_keys_spread_evenly_over_shards(self):
        router = ShardRouter(num_shards=8)
        counts = distribution(router, keys(40_000))
        mean = 40_000 / 8
        # Consistent hashing with 64 vnodes lands each shard well within a
        # factor of two of the fair share even for adversarially similar keys.
        for shard_id, count in counts.items():
            assert 0.5 * mean < count < 2.0 * mean, (shard_id, count)

    def test_every_shard_receives_keys(self):
        router = ShardRouter(num_shards=4)
        counts = distribution(router, keys(5_000))
        assert set(counts) == {0, 1, 2, 3}
        assert all(count > 0 for count in counts.values())

    def test_placement_is_deterministic(self):
        first = ShardRouter(num_shards=4)
        second = ShardRouter(num_shards=4)
        for document_id in document_ids(500):
            key = record_key("posts", document_id)
            assert first.ring.shard_for(key) == second.ring.shard_for(key)


class TestRoutingStability:
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

    def test_empty_ring_rejects_placement(self):
        ring = ConsistentHashRing()
        with pytest.raises(ValueError):
            ring.shard_for("record:posts/doc-1")


class TestOperationRouting:
    def test_routing_statistics_track_imbalance(self):
        """Max over mean of the routed counts: 8, 2 and 2 requests on three
        shards is 8 / (12 / 3) = 2.0 exactly; an idle router is balanced."""
        router = ShardRouter(num_shards=3)
        assert router.imbalance() == 1.0
        route_counts(router, (8, 2, 2))
        assert router.imbalance() == 2.0

    @pytest.mark.parametrize(
        "counts, expected",
        [
            ((5,), 1.0),
            ((1, 1, 1), 1.0),
            ((2, 2, 2, 2), 1.0),
            ((3, 1), 1.5),
            ((3, 0, 0), 3.0),
            ((0, 0, 5), 3.0),
            ((6, 3, 3, 0), 2.0),
        ],
    )
    def test_imbalance_is_max_over_mean_of_routed_counts(self, counts, expected):
        """Idle shards count in the mean, and the busiest shard may be any one."""
        router = ShardRouter(num_shards=len(counts))
        route_counts(router, counts)
        assert router.imbalance() == expected

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 8])
    def test_route_answers_the_ring_owner_and_counts_one_request(self, num_shards):
        router = ShardRouter(num_shards=num_shards)
        owners = Counter()
        for document_id in document_ids(100):
            owner = router.ring.shard_for(record_key("posts", document_id))
            assert router.route("read", "posts", document_id) == owner
            owners[owner] += 1
        counts = [owners[shard_id] for shard_id in range(num_shards)]
        assert router.imbalance() == max(counts) / (100 / num_shards)

    @pytest.mark.parametrize("op", ["read", "write"])
    def test_route_records_its_decision_on_the_open_span(self, op):
        router = ShardRouter(num_shards=4)
        router.tracer = tracer = TraceRecorder(VirtualClock())
        root = tracer.begin("request")
        shard_id = router.route(op, "posts", "doc-7")
        tracer.end(root)
        spans = tracer.spans()
        assert [(span.parent_id, span.name) for span in spans] == [
            (None, "request"),
            (root, "router.route"),
        ]
        assert spans[1].attrs == {"op": op, "shard": shard_id}

    def test_route_outside_a_request_is_counted_but_not_traced(self):
        router = ShardRouter(num_shards=2)
        router.tracer = tracer = TraceRecorder(VirtualClock())
        router.route("write", "posts", "doc-1")
        assert len(tracer) == 0
        assert router.imbalance() == 2.0

    @pytest.mark.parametrize("num_shards", [0, -3])
    def test_a_router_needs_at_least_one_shard(self, num_shards):
        with pytest.raises(ValueError):
            ShardRouter(num_shards=num_shards)

    def test_bulk_placement_agrees_with_route_and_counts_nothing(self):
        """A pre-load places records without routing them: imbalance stays idle."""
        router = ShardRouter(num_shards=4)
        placed = router.shards_for_records("posts", document_ids(50))
        assert router.imbalance() == 1.0
        assert placed == [router.route("read", "posts", doc) for doc in document_ids(50)]
