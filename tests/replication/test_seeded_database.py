"""A replica's database is built from its seed: ``seeded_database`` and
``ReplicaNode.seed_from``.

``seeded_database`` is the one snapshot copy of the replication layer (group
build, crash rejoin, post-promotion realign).  These tests pin what the copy
carries -- collections, indexes, versions, tombstone and restored floors --
what it adopts by reference, and what it keeps apart from its source: later
writes on either side, and its own change history.
"""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.db import Database
from repro.db.query import Query
from repro.errors import DocumentNotFoundError
from repro.replication.log_shipping import ReplicationLink
from repro.replication.replica import ReplicaNode, seeded_database


def source_database(clock=None) -> Database:
    database = Database(clock=clock if clock is not None else VirtualClock())
    posts = database.create_collection("posts")
    posts.create_index("category")
    for index in range(6):
        posts.insert({"_id": f"p{index}", "category": index % 2, "views": index})
    users = database.create_collection("users")
    users.insert({"_id": "u0", "name": "ada"})
    database.create_collection("empty")
    return database


class TestSeededDatabase:
    def test_every_collection_comes_along_with_its_indexes(self):
        source = source_database()
        copy = seeded_database(source, VirtualClock())
        assert copy.collection_names() == ["empty", "posts", "users"]
        assert copy.collection("posts").indexed_fields() == ["category"]
        assert copy.collection("users").indexed_fields() == []
        assert len(copy.collection("empty")) == 0

    def test_documents_are_adopted_by_reference_at_their_versions(self):
        source = source_database()
        source.update("posts", "p3", {"$inc": {"views": 1}})
        source.update("posts", "p3", {"$inc": {"views": 1}})
        copy = seeded_database(source, VirtualClock())
        for name in ("posts", "users"):
            original, seeded = source.collection(name), copy.collection(name)
            assert seeded.ids() == original.ids()
            for document_id in original.ids():
                assert seeded.get(document_id) is original.get(document_id)
                assert seeded.version(document_id) == original.version(document_id)
        assert copy.collection("posts").version("p3") == 3

    def test_an_indexed_query_finds_what_the_source_finds(self):
        source = source_database()
        copy = seeded_database(source, VirtualClock())
        query = Query("posts", {"category": 1})
        assert [doc["_id"] for doc in copy.find(query)] == [
            doc["_id"] for doc in source.find(query)
        ]
        assert [doc["_id"] for doc in copy.find(query)] == ["p1", "p3", "p5"]

    def test_a_tombstone_continues_the_version_sequence_of_a_reinsert(self):
        source = source_database()
        source.update("posts", "p1", {"$set": {"views": 10}})
        source.delete("posts", "p1")
        copy = seeded_database(source, VirtualClock())
        with pytest.raises(DocumentNotFoundError):
            copy.get("posts", "p1")
        copy.insert("posts", {"_id": "p1", "category": 1})
        assert copy.collection("posts").version("p1") == 3

    def test_a_restored_floor_above_a_live_version_survives_the_copy(self):
        source = source_database()
        source.collection("posts").restore_version_floors({"p0": 5})
        copy = seeded_database(source, VirtualClock())
        posts = copy.collection("posts")
        assert posts.version("p0") == 1
        assert posts.next_version("p0") == 6
        assert posts.version_floors()["p0"] == 5
        copy.update("posts", "p0", {"$set": {"views": 1}})
        assert posts.version("p0") == 6

    def test_later_writes_stay_on_their_own_side(self):
        source = source_database()
        copy = seeded_database(source, VirtualClock())
        source.update("posts", "p2", {"$set": {"views": 200}})
        copy.update("posts", "p4", {"$set": {"views": 400}})
        copy.insert("users", {"_id": "u1"})
        assert copy.get("posts", "p2")["views"] == 2
        assert source.get("posts", "p4")["views"] == 4
        assert source.collection("users").ids() == ["u0"]
        assert copy.collection("users").ids() == ["u0", "u1"]

    def test_the_copy_keeps_its_own_change_history(self):
        source = source_database()
        copy = seeded_database(source, VirtualClock())
        assert copy.change_stream is not source.change_stream
        # The seed is a bulk install: its seven documents take sequence
        # numbers and publish no event.
        assert copy.change_stream.last_sequence == 7
        assert len(copy.change_stream) == 0
        copy.update("posts", "p0", {"$set": {"views": 7}})
        copy.delete("users", "u0")
        replayed = copy.change_stream.replay_since(7)
        assert [
            (event.sequence, event.collection, event.document_id) for event in replayed
        ] == [(8, "posts", "p0"), (9, "users", "u0")]
        assert copy.change_stream.covers_since(7)
        # The source was never asked to retain anything.
        assert len(source.change_stream) == 0

    def test_the_copy_runs_on_the_clock_it_is_given(self):
        source = source_database(VirtualClock())
        clock = VirtualClock()
        copy = seeded_database(source, clock)
        assert copy.clock is clock
        clock.advance(4.0)
        copy.update("posts", "p0", {"$set": {"views": 7}})
        assert copy.change_stream.replay_since(7)[0].timestamp == 4.0

    def test_an_empty_source_seeds_an_empty_database(self):
        copy = seeded_database(Database(), VirtualClock())
        assert copy.collection_names() == []
        assert copy.change_stream.last_sequence == 0


class TestReplicaNodeSeeding:
    def test_a_node_keeps_the_database_it_is_given(self):
        clock = VirtualClock()
        database = seeded_database(source_database(), clock)
        node = ReplicaNode("n1", clock, database)
        assert node.database is database
        assert isinstance(node.link, ReplicationLink) and len(node.link) == 0
        assert (node.applied_sequence, node.applied_timestamp, node.records_applied) == (0, 0.0, 0)
        assert node.alive and node.link_sound and node.epoch == 0

    @pytest.mark.parametrize("upto", [(0, 0.0), (7, 3.5)])
    def test_a_resync_replaces_database_and_link_and_sets_the_watermark(self, upto):
        clock = VirtualClock()
        source = source_database(clock)
        node = ReplicaNode("n1", clock, Database(clock=clock))
        old_database, old_link = node.database, node.link
        node.link_sound = False
        node.seed_from(source, upto_sequence=upto[0], upto_timestamp=upto[1])
        assert node.database is not old_database and node.link is not old_link
        assert node.database.collection("posts").ids() == source.collection("posts").ids()
        assert (node.applied_sequence, node.applied_timestamp) == upto
        assert node.link_sound
