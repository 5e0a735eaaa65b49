"""Tests for the database facade: collections, CRUD, change stream."""

from __future__ import annotations

import pytest

from repro.db import Database, Query
from repro.errors import CollectionNotFoundError


class TestCollections:
    def test_create_collection_is_idempotent(self, database):
        first = database.create_collection("posts")
        second = database.create_collection("posts")
        assert first is second
        assert database.collection_names() == ["posts"]

    def test_collection_lookup_requires_existence(self, database):
        with pytest.raises(CollectionNotFoundError):
            database.collection("missing")

class TestConvenienceCrud:
    def test_insert_get_update_delete(self, database):
        database.insert("posts", {"_id": "p1", "views": 1})
        assert database.get("posts", "p1")["views"] == 1
        database.update("posts", "p1", {"$inc": {"views": 1}})
        assert database.get("posts", "p1")["views"] == 2
        database.delete("posts", "p1")
        assert database.collection("posts")._documents.get("p1") is None

    def test_find_routes_to_collection(self, database):
        database.insert("posts", {"_id": "p1", "category": "a"})
        database.insert("posts", {"_id": "p2", "category": "b"})
        result = database.find(Query("posts", {"category": "a"}))
        assert [doc["_id"] for doc in result] == ["p1"]

class TestChangeStreamIntegration:
    def test_replay_since_returns_newer_events(self, database):
        database.insert("posts", {"_id": "p1"})
        marker = database.change_stream.last_sequence
        database.insert("posts", {"_id": "p2"})
        database.insert("posts", {"_id": "p3"})
        replayed = database.change_stream.replay_since(marker)
        assert [event.document_id for event in replayed] == ["p2", "p3"]

    def test_all_collections_share_one_stream(self, database):
        events = []
        database.subscribe(events.append)
        database.insert("a", {"_id": "1"})
        database.insert("b", {"_id": "2"})
        assert [event.collection for event in events] == ["a", "b"]

    def test_unsubscribe_stops_delivery(self, database):
        events = []
        unsubscribe = database.subscribe(events.append)
        database.insert("a", {"_id": "1"})
        unsubscribe()
        database.insert("a", {"_id": "2"})
        assert len(events) == 1

