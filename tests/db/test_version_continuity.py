"""Per-document version numbers never name two contents.

A collection hands every insert and update the version one past everything
the id has held -- live, tombstoned, or a floor restored after a failover --
and ``version_floors`` / ``restore_version_floors`` carry that continuity
from one collection (a deposed primary) to another (its successor).
"""

from __future__ import annotations

from repro.db import Database


def posts():
    return Database().create_collection("posts")


def test_a_fresh_id_starts_at_version_one():
    collection = posts()
    assert collection.next_version("p1") == 1
    collection.insert({"_id": "p1"})
    assert collection.version("p1") == 1


def test_each_update_takes_the_next_version():
    collection = posts()
    collection.insert({"_id": "p1", "views": 0})
    for expected in (2, 3, 4):
        assert collection.next_version("p1") == expected
        collection.update("p1", {"$inc": {"views": 1}})
        assert collection.version("p1") == expected


def test_a_reinsert_continues_past_the_deleted_version():
    collection = posts()
    collection.insert({"_id": "p1"})
    collection.update("p1", {"$set": {"views": 1}})
    collection.delete("p1")
    assert collection.next_version("p1") == 3
    collection.insert({"_id": "p1"})
    assert collection.version("p1") == 3


def test_floors_report_live_and_deleted_ids():
    collection = posts()
    collection.insert({"_id": "live"})
    collection.update("live", {"$set": {"views": 1}})
    collection.insert({"_id": "gone"})
    collection.delete("gone")
    assert collection.version_floors() == {"live": 2, "gone": 1}


def test_a_restored_floor_above_a_live_version_is_skipped_past():
    collection = posts()
    collection.insert({"_id": "p1"})
    collection.restore_version_floors({"p1": 5})
    assert collection.next_version("p1") == 6
    assert collection.version_floors() == {"p1": 5}
    collection.update("p1", {"$set": {"views": 1}})
    assert collection.version("p1") == 6


def test_restoring_floors_never_lowers_one():
    collection = posts()
    collection.restore_version_floors({"p1": 5})
    collection.restore_version_floors({"p1": 3})
    assert collection.next_version("p1") == 6


def test_a_floor_the_live_version_already_reached_is_not_kept():
    collection = posts()
    collection.insert({"_id": "p1"})
    collection.update("p1", {"$set": {"views": 1}})
    collection.restore_version_floors({"p1": 1})
    assert collection.next_version("p1") == 3
    collection.delete("p1")
    # The tombstone is the live version the delete retired, not the old floor.
    assert collection.version_floors() == {"p1": 2}


def test_floors_carry_continuity_into_a_successor_collection():
    deposed = posts()
    deposed.insert({"_id": "p1"})
    deposed.update("p1", {"$set": {"views": 1}})
    deposed.insert({"_id": "p2"})
    deposed.delete("p2")
    successor = posts()
    successor.restore_version_floors(deposed.version_floors())
    successor.insert({"_id": "p1"})
    successor.insert({"_id": "p2"})
    assert (successor.version("p1"), successor.version("p2")) == (3, 2)
