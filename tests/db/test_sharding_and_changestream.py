"""Tests for the shard statistics table and the change stream container."""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.db.changestream import ChangeEvent, ChangeStream, OperationType
from repro.db.sharding import ShardStatisticsTable


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


class TestShardStatisticsTable:
    def test_counts_reads_and_writes_per_shard(self):
        table = ShardStatisticsTable(range(3))
        table.record_read(0)
        table.record_write(0)
        table.record_write(1, count=5)
        first, second, third = table.statistics()
        assert first.operations == 2
        assert second.writes == 5
        assert third.operations == 0

    def test_imbalance_of_idle_table_is_one(self):
        assert ShardStatisticsTable(range(4)).imbalance() == 1.0
        assert ShardStatisticsTable().imbalance() == 1.0

    def test_imbalance_is_max_over_mean(self):
        table = ShardStatisticsTable(range(2))
        table.record_write(0, count=3)
        table.record_write(1, count=1)
        assert table.imbalance() == pytest.approx(1.5)

    def test_imbalance_restricts_to_requested_shards(self):
        table = ShardStatisticsTable(range(3))
        table.record_write(0, count=8)
        table.record_write(1, count=2)
        table.record_write(2, count=2)
        assert table.imbalance([1, 2]) == pytest.approx(1.0)

    def test_statistics_order_follows_requested_ids(self):
        table = ShardStatisticsTable([2, 0, 1])
        assert [stats.shard_id for stats in table.statistics()] == [0, 1, 2]
        assert [stats.shard_id for stats in table.statistics([2, 0])] == [2, 0]


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
        stream = ChangeStream()
        events = [_event(stream.next_sequence(), f"d{index}") for index in range(5)]
        for event in events:
            stream.publish(event)
        replayed = stream.replay_since(events[2].sequence)
        assert [event.document_id for event in replayed] == ["d3", "d4"]

    def test_history_limit_truncates(self):
        stream = ChangeStream(history_limit=3)
        for index in range(10):
            stream.publish(_event(stream.next_sequence(), f"d{index}"))
        assert len(stream) == 3
        assert [event.document_id for event in stream.replay_since(0)] == ["d7", "d8", "d9"]

    def test_publishing_three_times_the_limit_answers_like_an_unbounded_tail(self):
        """Retention is a sliding window: past the limit every publish drops
        exactly the oldest event, and ``replay_since`` / ``covers_since``
        answer as the last ``limit`` events of an unbounded stream would."""
        limit = 50
        bounded, unbounded = ChangeStream(history_limit=limit), ChangeStream()
        for index in range(3 * limit):
            for stream in (bounded, unbounded):
                stream.publish(_event(stream.next_sequence(), f"d{index}"))
            tail = unbounded.replay_since(0)[-limit:]
            assert bounded.replay_since(0) == tail and len(bounded) == len(tail)
            oldest = tail[0].sequence
            for since in {0, max(0, oldest - 2), oldest - 1, oldest, index, index + 1, index + 5}:
                assert bounded.replay_since(since) == [
                    event for event in tail if event.sequence > since
                ]
                # Complete exactly when nothing after ``since`` was dropped.
                assert bounded.covers_since(since) == (since >= oldest - 1)
                assert unbounded.covers_since(since)

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

    def test_history_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            ChangeStream(history_limit=0)

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
