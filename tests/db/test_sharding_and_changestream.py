"""Tests for the consistent-hash ring's bulk placement and the change stream container."""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.db import changestream as changestream_module
from repro.db.changestream import ChangeEvent, ChangeStream, OperationType
from repro.bloom.hashing import mixed_uint64, mixed_uint64_all
from repro.cluster.router import ShardRouter
from repro.db.query import record_key
from repro.db.sharding import ConsistentHashRing
from repro.errors import ConfigurationError


def _event(sequence: int, document_id: str = "d1") -> ChangeEvent:
    return ChangeEvent(
        sequence=sequence,
        operation=OperationType.UPDATE,
        collection="posts",
        document_id=document_id,
        before={"_id": document_id},
        after={"_id": document_id, "v": sequence},
        timestamp=float(sequence),
    )


def _retaining() -> ChangeStream:
    stream = ChangeStream()
    stream.retain_history()
    return stream


class TestChangeStream:
    def test_publish_delivers_to_listeners(self):
        stream = ChangeStream()
        received = []
        stream.subscribe(received.append)
        event = _event(stream.next_sequence())
        stream.publish(event)
        assert received == [event]

    def test_unsubscribe(self):
        stream = ChangeStream()
        received = []
        unsubscribe = stream.subscribe(received.append)
        unsubscribe()
        stream.publish(_event(stream.next_sequence()))
        assert received == []

    def test_replay_since(self):
        stream = _retaining()
        events = [_event(stream.next_sequence(), f"d{index}") for index in range(5)]
        for event in events:
            stream.publish(event)
        replayed = stream.replay_since(events[2].sequence)
        assert [event.document_id for event in replayed] == ["d3", "d4"]

    def test_history_limit_truncates(self, monkeypatch):
        monkeypatch.setattr(changestream_module, "CHANGE_HISTORY_LIMIT", 3)
        stream = _retaining()
        for index in range(10):
            stream.publish(_event(stream.next_sequence(), f"d{index}"))
        assert len(stream) == 3
        assert [event.document_id for event in stream.replay_since(0)] == ["d7", "d8", "d9"]

    def test_publishing_three_times_the_limit_answers_like_an_unbounded_tail(self, monkeypatch):
        """Retention is a sliding window: past the limit every publish drops
        exactly the oldest event, and ``replay_since`` / ``covers_since``
        answer as the last ``limit`` of every event published would."""
        limit = 50
        monkeypatch.setattr(changestream_module, "CHANGE_HISTORY_LIMIT", limit)
        bounded, published = _retaining(), []
        for index in range(3 * limit):
            event = _event(bounded.next_sequence(), f"d{index}")
            bounded.publish(event)
            published.append(event)
            tail = published[-limit:]
            assert bounded.replay_since(0) == tail and len(bounded) == len(tail)
            oldest = tail[0].sequence
            for since in {0, max(0, oldest - 2), oldest - 1, oldest, index, index + 1, index + 5}:
                assert bounded.replay_since(since) == [
                    event for event in tail if event.sequence > since
                ]
                # Complete exactly when nothing after ``since`` was dropped.
                assert bounded.covers_since(since) == (since >= oldest - 1)

    def test_a_stream_keeps_nothing_until_asked(self):
        """Without ``retain_history`` nothing is kept, and nothing published
        before the call is kept after it: ``covers_since`` says so."""
        stream, received = ChangeStream(), []
        stream.subscribe(received.append)
        for index in range(3):
            stream.publish(_event(stream.next_sequence(), f"d{index}"))
        assert len(received) == 3 and len(stream) == 0
        assert stream.replay_since(0) == [] and not stream.covers_since(0)
        stream.retain_history()
        stream.publish(_event(stream.next_sequence(), "d3"))
        stream.retain_history()  # a second call keeps what the first kept
        stream.publish(_event(stream.next_sequence(), "d4"))
        assert [event.document_id for event in stream.replay_since(0)] == ["d3", "d4"]
        assert stream.covers_since(3) and not stream.covers_since(2)

    def test_a_listener_may_unsubscribe_during_delivery(self):
        """Delivery runs over the listeners it started with; the change shows
        from the next event on."""
        stream = ChangeStream()
        received = []

        def once(event):
            received.append(("once", event.sequence))
            unsubscribe()

        unsubscribe = stream.subscribe(once)
        stream.subscribe(lambda event: received.append(("always", event.sequence)))
        stream.publish(_event(stream.next_sequence()))
        stream.publish(_event(stream.next_sequence()))
        assert received == [("once", 1), ("always", 1), ("always", 2)]

    def test_advance_numbers_writes_without_keeping_them(self):
        stream = _retaining()
        stream.advance(4)
        assert stream.last_sequence == 4 and len(stream) == 0
        stream.publish(_event(stream.next_sequence(), "d5"))
        assert [event.sequence for event in stream.replay_since(4)] == [5]
        assert stream.covers_since(4) and not stream.covers_since(3)

    def test_advance_refuses_a_stream_with_listeners(self):
        stream = ChangeStream()
        stream.subscribe(lambda event: None)
        with pytest.raises(ConfigurationError, match="before anything subscribes"):
            stream.advance(1)
        assert stream.last_sequence == 0

    def test_a_database_keeps_its_last_change_history_limit_events(self, monkeypatch):
        monkeypatch.setattr(changestream_module, "CHANGE_HISTORY_LIMIT", 3)
        database = Database()
        database.change_stream.retain_history()
        posts = database.create_collection("posts")
        for index in range(5):
            posts.insert({"_id": f"d{index}"})
        assert len(database.change_stream) == 3
        assert [event.document_id for event in database.change_stream.replay_since(0)] == [
            "d2", "d3", "d4",
        ]
        assert not database.change_stream.covers_since(0)

    def test_a_collection_stamps_the_installed_version_on_its_events(self):
        database = Database()
        received = []
        database.subscribe(received.append)
        posts = database.create_collection("posts")
        posts.insert({"_id": "p1", "views": 0})
        posts.update("p1", {"$inc": {"views": 1}})
        posts.delete("p1")
        posts.insert({"_id": "p1", "views": 9})  # continues the sequence past the tombstone
        assert [(event.operation.value, event.version) for event in received] == [
            ("insert", 1), ("update", 2), ("delete", 0), ("insert", 3)
        ]
        assert _event(1).version == 0  # hand-built events carry none


class TestBulkPlacement:
    """``place_all`` hashes a shared prefix once; it must place every key
    exactly where ``shard_for`` does."""

    @pytest.mark.parametrize(
        "suffixes",
        [
            [],
            ["only"],
            [f"table_00-doc-{number:06d}" for number in range(300)],
            ["a", "ab", "abc", "", "b", "é-1", "é-2", "日本", "日本語"],
        ],
    )
    def test_places_every_key_where_shard_for_does(self, suffixes):
        ring = ConsistentHashRing(range(5))
        prefix = record_key("posts", "")
        assert ring.place_all(prefix, suffixes) == [
            ConsistentHashRing(range(5)).shard_for(prefix + suffix) for suffix in suffixes
        ]

    def test_continues_fnv_from_the_prefix_exactly(self):
        keys = ["record:posts/p1", "record:posts/p22", "record:posts/", "record:t/é"]
        assert mixed_uint64_all("record:", [key[len("record:"):] for key in keys]) == [
            mixed_uint64(key) for key in keys
        ]

    def test_the_router_places_a_table_like_one_record_at_a_time(self):
        router = ShardRouter(4)
        ids = [f"table_03-doc-{number:06d}" for number in range(200)]
        assert router.shards_for_records("table_03", ids) == [
            router.ring.shard_for(record_key("table_03", document_id)) for document_id in ids
        ]

    def test_an_empty_ring_places_nothing(self):
        with pytest.raises(ValueError):
            ConsistentHashRing().place_all("record:", ["a"])
