"""Replica groups: log shipping, consistency gating, failover, recovery."""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.core import ConsistencyLevel, QuaestorConfig, QuaestorServer
from repro.db import Database
from repro.errors import CacheCoherenceError, ShardUnavailableError
from repro.invalidb import InvaliDBCluster
from repro.replication import ReplicaGroup, ReplicationConfig
from repro.replication.config import MAX_REPLICA_STALENESS
from repro.rest.messages import StatusCode
from repro.simulation.latency import LatencyModel


def build_group(replication_factor: int = 2, lag_mean: float = 0.05, clock=None):
    clock = clock if clock is not None else VirtualClock()
    database = Database(clock=clock)
    posts = database.create_collection("posts")
    posts.create_index("category")
    for index in range(12):
        posts.insert({"_id": f"p{index}", "category": index % 3, "views": index})
    config = QuaestorConfig()
    server = QuaestorServer(database, config=config, invalidb=InvaliDBCluster(matching_nodes=1))

    def factory(new_database, ebf, ttl_estimator):
        return QuaestorServer(
            new_database,
            config=config,
            invalidb=InvaliDBCluster(matching_nodes=1),
            ebf=ebf,
            ttl_estimator=ttl_estimator,
        )

    replication = ReplicationConfig(
        replication_factor=replication_factor,
        lag=LatencyModel(mean=lag_mean, jitter=0.0),
    )
    group = ReplicaGroup(
        shard_id=0,
        database=database,
        server=server,
        server_factory=factory,
        clock=clock,
        config=replication,
    )
    return clock, database, server, group


class TestSeedingAndShipping:
    def test_replicas_start_with_a_faithful_snapshot(self):
        _clock, database, _server, group = build_group(replication_factor=3)
        for node in group.replica_nodes():
            assert node.database.collection("posts").ids() == database.collection("posts").ids()
            for document_id in database.collection("posts").ids():
                assert node.database.collection("posts").version(document_id) == (
                    database.collection("posts").version(document_id)
                )
            assert "category" in node.database.collection("posts").indexed_fields()

    def test_writes_become_visible_only_after_the_modelled_lag(self):
        clock, database, _server, group = build_group(replication_factor=2, lag_mean=0.05)
        clock.advance(1.0)
        database.update("posts", "p1", {"$set": {"views": 999}})
        replica = group.replica_nodes()[0]

        # Before the lag has elapsed, the replica still serves the old state.
        replica.deliver_until(clock.now())
        assert replica.database.get("posts", "p1")["views"] == 1

        clock.advance(0.06)
        replica.deliver_until(clock.now())
        assert replica.database.get("posts", "p1")["views"] == 999
        assert replica.database.collection("posts").version("p1") == (
            database.collection("posts").version("p1")
        )

    def test_version_sequences_stay_in_lockstep_across_delete_reinsert(self):
        clock, database, _server, group = build_group(replication_factor=2, lag_mean=0.01)
        clock.advance(1.0)
        database.update("posts", "p2", {"$inc": {"views": 1}})
        database.delete("posts", "p2")
        database.insert("posts", {"_id": "p2", "category": 0, "views": 0})
        clock.advance(0.1)
        replica = group.replica_nodes()[0]
        replica.deliver_until(clock.now())
        assert replica.database.collection("posts").version("p2") == (
            database.collection("posts").version("p2")
        )

    def test_replicas_share_the_primarys_snapshot_of_each_version(self):
        """RF 3 holds one object per document version, not three copies."""
        clock, database, _server, group = build_group(replication_factor=3, lag_mean=0.01)
        primary = database.collection("posts")
        seeded = primary.get("p1")
        clock.advance(1.0)
        updated = database.update("posts", "p1", {"$set": {"views": 999}})
        inserted = database.insert("posts", {"_id": "new", "category": 0})
        for replica in group.replica_nodes():
            stored = replica.database.collection("posts")
            assert stored.get("p1") is seeded  # resync adopted the stored object
            assert stored.get("p4") is primary.get("p4")
        clock.advance(0.1)
        for replica in group.replica_nodes():
            replica.deliver_until(clock.now())
            stored = replica.database.collection("posts")
            assert stored.get("p1") is updated and stored.version("p1") == 2
            assert stored.get("new") is inserted and stored.version("new") == 1
            # The replica's own change stream (its shipping log once
            # promoted) carries the very same images.
            event = replica.database.change_stream.replay_since(0)[-2]
            assert event.before is seeded and event.after is updated

    def test_replica_rejects_a_shipped_version_it_would_not_have_assigned(self):
        """A skipped record must surface as divergence, not be papered over."""
        clock, database, _server, group = build_group(replication_factor=2, lag_mean=0.01)
        clock.advance(1.0)
        database.update("posts", "p1", {"$inc": {"views": 1}})
        database.update("posts", "p1", {"$inc": {"views": 1}})
        replica = group.replica_nodes()[0]
        skipped = replica.link.take_ready(clock.now() + 1.0)
        assert [record.event.version for record in skipped] == [2, 3]
        with pytest.raises(CacheCoherenceError, match="diverged on posts/p1"):
            replica._apply(skipped[1])
        assert replica.database.collection("posts").version("p1") == 1

    def test_rf1_group_never_samples_lag_and_routes_to_primary(self):
        clock, database, server, group = build_group(replication_factor=1)
        clock.advance(1.0)
        database.update("posts", "p0", {"$set": {"views": 5}})
        response = group.read("posts", "p0")
        assert response.body["document"]["views"] == 5
        assert group.last_served_node_id == group.primary_node_id
        assert group.counters.get("replica_reads") == 0
        assert group.server is server


class TestConsistencyGating:
    def test_strong_reads_always_hit_the_primary(self):
        clock, _database, _server, group = build_group(replication_factor=3)
        clock.advance(1.0)
        for _ in range(6):
            group.read("posts", "p1", consistency=ConsistencyLevel.STRONG)
        assert group.counters.get("replica_reads") == 0
        assert group.counters.get("primary_reads") == 6

    def test_delta_atomic_reads_round_robin_over_all_nodes(self):
        clock, _database, _server, group = build_group(replication_factor=3)
        clock.advance(1.0)
        served = set()
        for _ in range(6):
            group.read("posts", "p1", consistency=ConsistencyLevel.DELTA_ATOMIC)
            served.add(group.last_served_node_id)
        assert served == {"s0:n0", "s0:n1", "s0:n2"}

    def test_causal_reads_skip_replicas_behind_the_frontier(self):
        clock, database, _server, group = build_group(replication_factor=2, lag_mean=0.5)
        clock.advance(1.0)
        database.update("posts", "p3", {"$set": {"views": 100}})
        frontier = clock.now()
        clock.advance(0.01)  # lag (0.5s) has not elapsed: replica is behind
        for _ in range(4):
            response = group.read(
                "posts", "p3", consistency=ConsistencyLevel.CAUSAL, min_timestamp=frontier
            )
            assert response.body["document"]["views"] == 100
        assert group.counters.get("replica_reads") == 0
        assert group.counters.get("causal_replica_skips") > 0

        # Once the replica catches up it becomes eligible again.
        clock.advance(1.0)
        served = set()
        for _ in range(4):
            group.read(
                "posts", "p3", consistency=ConsistencyLevel.CAUSAL, min_timestamp=frontier
            )
            served.add(group.last_served_node_id)
        assert len(served) == 2

    def test_replica_miss_falls_back_to_the_primary(self):
        # Regression: a document the primary has acknowledged but a lagging
        # replica has not applied yet must never read back as a 404 while the
        # primary is alive -- that would break read-your-writes for inserts.
        clock, database, _server, group = build_group(replication_factor=2, lag_mean=10.0)
        clock.advance(1.0)
        database.create_collection("posts").insert(
            {"_id": "fresh", "category": 9, "views": 1}
        )
        for _ in range(4):  # round-robin must hit the lagging replica too
            response = group.read("posts", "fresh", consistency=ConsistencyLevel.DELTA_ATOMIC)
            assert response.status is StatusCode.OK
            assert response.body["document"]["_id"] == "fresh"
        assert group.counters.get("replica_read_misses") > 0

    def test_stale_replica_read_is_served_not_failed(self):
        clock, database, _server, group = build_group(replication_factor=2, lag_mean=10.0)
        clock.advance(1.0)
        database.update("posts", "p4", {"$set": {"views": 777}})
        clock.advance(0.1)
        # Force the replica by crashing the primary: fail-stale serving.
        group.crash(group.primary_node_id)
        response = group.read("posts", "p4", consistency=ConsistencyLevel.DELTA_ATOMIC)
        assert response.status is StatusCode.OK
        assert response.body["document"]["views"] == 4  # pre-update state


    def test_a_replica_past_the_staleness_budget_is_routed_around(self):
        clock, database, _server, group = build_group(replication_factor=2, lag_mean=10.0)
        clock.advance(1.0)
        database.update("posts", "p4", {"$set": {"views": 777}})
        clock.advance(2 * MAX_REPLICA_STALENESS)  # the 10 s lag keeps it pending
        for _ in range(4):  # round-robin would reach the replica were it eligible
            response = group.read("posts", "p4", consistency=ConsistencyLevel.DELTA_ATOMIC)
            assert response.body["document"]["views"] == 777
        assert group.counters.get("stale_replica_skips") == 4
        assert group.counters.get("replica_reads") == 0

    def test_a_replica_within_the_staleness_budget_serves_reads(self):
        clock, database, _server, group = build_group(replication_factor=2, lag_mean=10.0)
        clock.advance(1.0)
        database.update("posts", "p4", {"$set": {"views": 777}})
        clock.advance(MAX_REPLICA_STALENESS / 2)
        for _ in range(4):
            group.read("posts", "p4", consistency=ConsistencyLevel.DELTA_ATOMIC)
        assert group.counters.get("stale_replica_skips") == 0
        assert group.counters.get("replica_reads") > 0


class TestFailover:
    def test_strong_read_and_unreplicated_group_raise_when_primary_down(self):
        clock, _database, _server, group = build_group(replication_factor=2)
        clock.advance(1.0)
        group.crash(group.primary_node_id)
        with pytest.raises(ShardUnavailableError):
            group.read("posts", "p0", consistency=ConsistencyLevel.STRONG)

        _clock2, _db2, _server2, rf1 = build_group(replication_factor=1)
        rf1.crash(rf1.primary_node_id)
        with pytest.raises(ShardUnavailableError):
            rf1.read("posts", "p0")

    def test_promote_picks_the_freshest_replica(self):
        clock, database, _server, group = build_group(replication_factor=3, lag_mean=0.05)
        clock.advance(1.0)
        # Partition n2 so only n1 receives the write stream.
        group.partition(group.primary_node_id, "s0:n2")
        database.update("posts", "p5", {"$set": {"views": 500}})
        clock.advance(0.2)
        group.crash(group.primary_node_id)
        info = group.promote()
        assert info["node_id"] == "s0:n1"
        assert group.primary_alive
        assert group.server.database.get("posts", "p5")["views"] == 500

    def test_lost_tail_is_flagged_stale_in_the_surviving_ebf(self):
        clock, database, _server, group = build_group(replication_factor=2, lag_mean=5.0)
        clock.advance(1.0)
        # Serve a read so the EBF tracks the key as cacheable.
        group.read("posts", "p6", consistency=ConsistencyLevel.STRONG)
        database.update("posts", "p6", {"$set": {"views": 600}})
        clock.advance(0.1)  # far below the 5s lag: the update never arrives
        group.crash(group.primary_node_id)
        info = group.promote()
        assert info["lost_records"] >= 1
        # The rolled-back key must read stale so caches revalidate.
        assert group.ebf.contains("record:posts/p6")
        # And the promoted primary indeed serves the pre-update state.
        assert group.server.database.get("posts", "p6")["views"] == 6

    def test_lost_versions_are_never_reissued_after_failover(self):
        # Regression: the deposed primary assigned a version the promoted
        # replica never applied; the next write on the new primary must skip
        # past it -- re-issuing the number to different content would make
        # version-keyed ETags alias two bodies (fail-incorrect).
        clock, database, _server, group = build_group(replication_factor=2, lag_mean=5.0)
        clock.advance(1.0)
        database.update("posts", "p6", {"$set": {"views": 600}})  # v2, in flight
        lost_version = database.collection("posts").version("p6")
        clock.advance(0.1)
        group.crash(group.primary_node_id)
        group.promote()
        promoted = group.server.database.collection("posts")
        assert promoted.version("p6") < lost_version
        group.server.handle_update("posts", "p6", {"$set": {"views": 601}})
        assert promoted.version("p6") > lost_version

    def test_loss_window_covers_writes_the_winner_never_received(self):
        # Regression: the loss window must come from the deposed primary's
        # change stream, not the winner's link -- a write acknowledged while
        # the winner was crashed (and queued only on a partitioned peer's
        # link) would otherwise vanish with no fail-stale flag and its
        # version number would be re-issued to different content.
        clock, database, _server, group = build_group(replication_factor=3, lag_mean=0.01)
        clock.advance(1.0)
        group.read("posts", "p1", consistency=ConsistencyLevel.STRONG)  # EBF tracks p1
        group.partition(group.primary_node_id, "s0:n2")
        group.crash("s0:n1")
        database.update("posts", "p1", {"$set": {"views": 100}})  # acked: v2
        lost_version = database.collection("posts").version("p1")
        clock.advance(0.1)
        group.crash(group.primary_node_id)
        group.recover("s0:n1")          # rejoins primary-less, empty link
        info = group.promote()
        assert info["node_id"] == "s0:n1"
        assert info["lost_records"] >= 1
        assert group.ebf.contains("record:posts/p1")
        promoted = group.server.database.collection("posts")
        group.server.handle_update("posts", "p1", {"$set": {"views": 7}})
        assert promoted.version("p1") > lost_version

    def test_rejoined_candidate_with_empty_link_is_not_causally_trusted(self):
        # Regression: an empty link proves nothing after a crash (no ship
        # fan-out while dead); a causal read below the session frontier must
        # not be served from such a node.
        clock, database, _server, group = build_group(replication_factor=3, lag_mean=0.01)
        clock.advance(1.0)
        group.crash("s0:n1")
        database.update("posts", "p2", {"$set": {"views": 42}})
        frontier = clock.now()
        clock.advance(0.1)
        group.crash(group.primary_node_id)
        group.recover("s0:n1")          # candidate: link empty but unsound
        for _ in range(4):
            response = group.read(
                "posts", "p2", consistency=ConsistencyLevel.CAUSAL, min_timestamp=frontier
            )
            # Only the caught-up n2 may serve; the rejoined n1 may not.
            assert response.body["document"]["views"] == 42
            assert group.last_served_node_id == "s0:n2"

    def test_restored_floor_survives_delete_reinsert_and_resync(self):
        # Regression trio: a failover-restored floor above the live version
        # must survive (a) a delete (no clobbering with the lower final
        # version), (b) version_floors() reporting (no masking by the live
        # version), and (c) a snapshot resync -- otherwise a later write or
        # promotion recycles version numbers the deposed primary issued.
        from repro.clock import VirtualClock as VC
        from repro.db import Database as DB

        database = DB(clock=VC())
        posts = database.create_collection("posts")
        posts.insert({"_id": "x", "views": 0})            # live at v1
        posts.restore_version_floors({"x": 7})            # deposed primary issued up to v7
        assert posts.version_floors()["x"] == 7           # (b) floor not masked

        posts.delete("x")                                 # (a) must keep floor 7, not 1
        posts.insert({"_id": "x", "views": 1})
        assert posts.version("x") == 8

        # (c) floors survive a replica snapshot resync.
        node_clock = VC()
        from repro.replication import ReplicaNode

        posts.restore_version_floors({"x": 20})
        node = ReplicaNode("n", database.clock)
        node.seed_from(database)
        replica_posts = node.database.collection("posts")
        assert replica_posts.version("x") == 8            # live version preserved
        replica_posts.update("x", {"$inc": {"views": 1}})
        assert replica_posts.version("x") == 21           # floor carried over

    def test_writes_resume_on_the_promoted_primary_and_ship_to_survivors(self):
        clock, database, _server, group = build_group(replication_factor=3, lag_mean=0.01)
        clock.advance(1.0)
        group.crash(group.primary_node_id)
        group.promote()
        new_primary = group.server
        new_primary.handle_update("posts", "p7", {"$set": {"views": 700}})
        clock.advance(0.1)
        survivor = [n for n in group.replica_nodes() if n.alive][0]
        survivor.deliver_until(clock.now())
        assert survivor.database.get("posts", "p7")["views"] == 700

    def test_recovered_node_rejoins_as_replica_with_current_state(self):
        clock, database, _server, group = build_group(replication_factor=2, lag_mean=0.01)
        clock.advance(1.0)
        old_primary = group.primary_node_id
        group.crash(old_primary)
        group.promote()
        group.server.handle_update("posts", "p8", {"$set": {"views": 800}})
        clock.advance(0.5)
        assert group.recover(old_primary) == "replica"
        rejoined = group.node(old_primary)
        assert rejoined.database.get("posts", "p8")["views"] == 800

    def test_total_outage_recovers_from_disk(self):
        clock, _database, _server, group = build_group(replication_factor=2)
        clock.advance(1.0)
        group.crash("s0:n1")
        group.crash(group.primary_node_id)
        assert group.promote() is None  # nobody left to promote
        with pytest.raises(ShardUnavailableError):
            group.read("posts", "p0")
        assert group.recover("s0:n0") == "primary"
        assert group.read("posts", "p0").status is StatusCode.OK

    def test_total_outage_restore_keeps_promoted_era_writes(self):
        # Regression: after crash -> promote -> write -> second crash, a
        # stale node ending the total outage must restore from the last
        # primary's durable state, not its own -- rolling back acknowledged
        # writes would also re-issue their version numbers to new content
        # (ETag aliasing: fail-incorrect).
        clock, _database, _server, group = build_group(replication_factor=3, lag_mean=0.01)
        clock.advance(1.0)
        group.crash(group.primary_node_id)          # n0 down
        group.promote()                             # n1 serves
        group.server.handle_update("posts", "p1", {"$set": {"views": 111}})
        promoted_version = group.database.collection("posts").version("p1")
        # n2 never applies the write (crash it before the lag elapses).
        group.crash("s0:n2")
        group.crash(group.primary_node_id)          # n1 down: total outage
        assert group.recover("s0:n2") == "primary"
        assert group.server.database.get("posts", "p1")["views"] == 111
        assert group.database.collection("posts").version("p1") == promoted_version

    def test_degenerate_partition_pair_is_a_noop(self):
        clock, _database, _server, group = build_group(replication_factor=2)
        group.partition(group.primary_node_id, group.primary_node_id)
        assert group.counters.get("degenerate_partitions_ignored") == 1
        # The group keeps serving; no partition is recorded.
        assert group.read("posts", "p0").status is StatusCode.OK
        group.heal(group.primary_node_id, group.primary_node_id)  # also a no-op


class TestPartitions:
    def test_partition_does_not_retroactively_block_arrived_records(self):
        # Delivery is lazy, so a partition (or crash) must first materialise
        # every record whose delivery time had already passed -- only
        # in-flight and future traffic may be cut.
        clock, database, _server, group = build_group(replication_factor=2, lag_mean=0.01)
        clock.advance(1.0)
        database.update("posts", "p0", {"$set": {"views": 50}})
        clock.advance(1.0)  # the update has long arrived, just not applied
        group.partition(group.primary_node_id, "s0:n1")
        replica = group.node("s0:n1")
        assert replica.database.get("posts", "p0")["views"] == 50

        group.crash(group.primary_node_id)
        response = group.read("posts", "p0")
        assert response.body["document"]["views"] == 50

    def test_partitioned_replica_catches_up_after_heal(self):
        clock, database, _server, group = build_group(replication_factor=2, lag_mean=0.01)
        clock.advance(1.0)
        replica_id = "s0:n1"
        group.partition(group.primary_node_id, replica_id)
        database.update("posts", "p9", {"$set": {"views": 900}})
        clock.advance(5.0)
        replica = group.node(replica_id)
        replica.deliver_until(clock.now())
        assert replica.database.get("posts", "p9")["views"] == 9  # still partitioned

        group.heal(group.primary_node_id, replica_id)
        clock.advance(1.0)
        replica.deliver_until(clock.now())
        assert replica.database.get("posts", "p9")["views"] == 900
