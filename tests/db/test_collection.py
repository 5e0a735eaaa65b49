"""Tests for collections: CRUD, after-images, query execution."""

from __future__ import annotations

import pytest

from repro.db import Database, OperationType, Query
from repro.errors import DocumentNotFoundError, DuplicateKeyError, InvalidQueryError
from repro.db.collection import Collection


class TestCrud:
    def test_insert_and_get(self, database):
        posts = database.create_collection("posts")
        posts.insert({"_id": "p1", "title": "Hello"})
        assert posts.get("p1")["title"] == "Hello"
        assert len(posts) == 1

    def test_insert_requires_id(self, database):
        posts = database.create_collection("posts")
        with pytest.raises(InvalidQueryError):
            posts.insert({"title": "no id"})

    def test_duplicate_insert_rejected(self, database):
        posts = database.create_collection("posts")
        posts.insert({"_id": "p1"})
        with pytest.raises(DuplicateKeyError):
            posts.insert({"_id": "p1"})

    def test_get_missing_raises(self, database):
        posts = database.create_collection("posts")
        with pytest.raises(DocumentNotFoundError):
            posts.get("nope")
        assert posts._documents.get("nope") is None

    def test_returned_documents_are_copies(self, database):
        """The ownership contract: one copy at write ingress, shared snapshots after."""
        posts = database.create_collection("posts")
        document = {"_id": "p1", "tags": ["a"]}
        inserted = posts.insert(document)
        document["tags"].append("caller-side edit")
        assert inserted == {"_id": "p1", "tags": ["a"]}
        # Reads, queries and write results hand out the stored object itself.
        assert posts.get("p1") is inserted
        assert posts._documents.get("p1") is inserted
        assert posts.find(Query("posts", {"tags": "a"})) == [inserted]
        assert posts.find(Query("posts", {"tags": "a"}))[0] is inserted

        operand = {"nested": ["x"]}
        updated = posts.update("p1", {"$set": {"meta": operand}, "$push": {"tags": "b"}})
        operand["nested"].append("caller-side edit")
        assert updated == {"_id": "p1", "tags": ["a", "b"], "meta": {"nested": ["x"]}}
        assert posts.get("p1") is updated
        # The update built a new version; the previous one is untouched.
        assert inserted == {"_id": "p1", "tags": ["a"]}

        replacement = {"tags": ["c"]}
        replaced = posts.update("p1", replacement)
        replacement["tags"].append("caller-side edit")
        assert posts.get("p1") is replaced and replaced["tags"] == ["c"]
        assert posts.delete("p1") is replaced

    def test_update_partial(self, database):
        posts = database.create_collection("posts")
        posts.insert({"_id": "p1", "views": 1, "title": "Hello"})
        updated = posts.update("p1", {"$inc": {"views": 1}})
        assert updated["views"] == 2
        assert updated["title"] == "Hello"

    def test_update_missing_raises(self, database):
        posts = database.create_collection("posts")
        with pytest.raises(DocumentNotFoundError):
            posts.update("nope", {"$set": {"a": 1}})

    def test_delete(self, database):
        posts = database.create_collection("posts")
        posts.insert({"_id": "p1"})
        deleted = posts.delete("p1")
        assert deleted["_id"] == "p1"
        assert "p1" not in posts
        with pytest.raises(DocumentNotFoundError):
            posts.delete("p1")

    def test_version_counter_increments(self, database):
        posts = database.create_collection("posts")
        posts.insert({"_id": "p1", "views": 0})
        assert posts.version("p1") == 1
        posts.update("p1", {"$inc": {"views": 1}})
        posts.update("p1", {"$inc": {"views": 1}})
        assert posts.version("p1") == 3

    def test_versions_never_recycle_across_delete_and_reinsert(self, database):
        """A version pins one content forever: re-inserting a deleted _id must
        continue the sequence, or ETags (and every version-keyed cache/session
        memo) would alias different content."""
        from repro.rest.etags import etag_for_version

        posts = database.create_collection("posts")
        posts.insert({"_id": "p1", "body": "original"})
        posts.update("p1", {"$set": {"body": "edited"}})
        old_version = posts.version("p1")
        old_etag = etag_for_version("posts", "p1", old_version)
        posts.delete("p1")
        posts.insert({"_id": "p1", "body": "reincarnated"})
        new_version = posts.version("p1")
        assert new_version == old_version + 1
        assert etag_for_version("posts", "p1", new_version) != old_etag


class TestChangeEvents:
    def test_insert_emits_after_image(self, database):
        events = []
        database.subscribe(events.append)
        posts = database.create_collection("posts")
        posts.insert({"_id": "p1", "views": 1})
        assert len(events) == 1
        event = events[0]
        assert event.operation == OperationType.INSERT
        assert event.before is None
        assert event.after == {"_id": "p1", "views": 1}

    def test_update_carries_before_and_after(self, database):
        events = []
        posts = database.create_collection("posts")
        posts.insert({"_id": "p1", "views": 1})
        database.subscribe(events.append)
        posts.update("p1", {"$inc": {"views": 4}})
        event = events[0]
        assert event.operation == OperationType.UPDATE
        assert event.before["views"] == 1
        assert event.after["views"] == 5

    def test_delete_has_no_after_image(self, database):
        events = []
        posts = database.create_collection("posts")
        posts.insert({"_id": "p1"})
        database.subscribe(events.append)
        posts.delete("p1")
        assert events[0].operation == OperationType.DELETE
        assert events[0].after is None

    def test_events_have_increasing_sequence(self, database):
        events = []
        database.subscribe(events.append)
        posts = database.create_collection("posts")
        for index in range(5):
            posts.insert({"_id": f"p{index}"})
        sequences = [event.sequence for event in events]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == 5

    def test_after_images_are_immutable_snapshots(self, database):
        events = []
        database.subscribe(events.append)
        posts = database.create_collection("posts")
        posts.insert({"_id": "p1", "tags": ["a"]})
        posts.update("p1", {"$push": {"tags": "b"}})
        assert events[0].after["tags"] == ["a"]

    def test_change_events_carry_the_stored_snapshots(self, database):
        events = []
        database.subscribe(events.append)
        posts = database.create_collection("posts")
        first = posts.insert({"_id": "p1", "views": 1})
        second = posts.update("p1", {"$inc": {"views": 1}})
        posts.delete("p1")
        inserted, updated, deleted = events
        assert inserted.before is None and inserted.after is first
        assert updated.before is first and updated.after is second
        assert deleted.before is second and deleted.after is None
        assert (first, second) == ({"_id": "p1", "views": 1}, {"_id": "p1", "views": 2})


class TestFind:
    def test_find_with_predicate(self, posts):
        result = posts.find(Query("posts", {"tags": "example"}))
        assert len(result) == 10
        assert all("example" in doc["tags"] for doc in result)

    def test_find_wrong_collection_rejected(self, posts):
        with pytest.raises(InvalidQueryError):
            posts.find(Query("users", {}))

    def test_find_sort_limit_offset(self, posts):
        query = Query("posts", {"tags": "example"}, sort=[("views", -1)], limit=3, offset=1)
        result = posts.find(query)
        views = [doc["views"] for doc in result]
        assert views == [16, 14, 12]

    def test_find_without_sort_is_deterministic(self, posts):
        query = Query("posts", {"tags": "example"})
        assert posts.find(query) == posts.find(query)

    def test_find_uses_index_when_available(self, database):
        collection = database.create_collection("items")
        collection.create_index("category")
        for index in range(100):
            collection.insert({"_id": f"i{index}", "category": index % 10})
        result = collection.find(Query("items", {"category": 3}))
        assert len(result) == 10
        assert all(doc["category"] == 3 for doc in result)

    def test_find_narrows_by_index(self, posts):
        """Find evaluates the plan's matcher on the index's candidates only."""
        evaluated = []

        def counting(query):
            matcher = query.plan.matches
            counted = query.plan._replace(
                matches=lambda document: evaluated.append(1) or matcher(document)
            )
            object.__setattr__(query, "_plan", counted)
            return query

        indexed = counting(Query("posts", {"tags": "example", "views": {"$gte": 10}}))
        assert len(posts.find(indexed)) == 5
        assert len(evaluated) == 10  # the "example" bucket, not all 20
        del evaluated[:]
        assert len(posts.find(counting(Query("posts", {"views": {"$gte": 10}})))) == 10
        assert len(evaluated) == 20  # no indexed equality: full scan

    def test_ids_sorted(self, database):
        collection = database.create_collection("c")
        collection.insert({"_id": "b"})
        collection.insert({"_id": "a"})
        assert collection.ids() == ["a", "b"]
