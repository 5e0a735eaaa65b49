"""The replication link and a replica node's backlog introspection.

``ReplicationLink`` is the in-order channel between a primary and one
replica: delivery times are clamped monotone and records are taken in order
once their time has come.  ``ReplicaNode`` reads its lag, staleness and
causal watermark off that backlog; these tests drive both by hand-built log
records, without a replica group around them.
"""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.db import Database
from repro.db.changestream import ChangeEvent, OperationType
from repro.replication.log_shipping import LogRecord, ReplicationLink
from repro.replication.replica import ReplicaNode


def record(sequence: int, timestamp: float, apply_at: float, document_id: str = "d1") -> LogRecord:
    """An insert of ``document_id`` at version 1, committed at ``timestamp``."""
    event = ChangeEvent(
        sequence=sequence,
        operation=OperationType.INSERT,
        collection="posts",
        document_id=document_id,
        before=None,
        after={"_id": document_id, "views": sequence},
        timestamp=timestamp,
        version=1,
    )
    return LogRecord(event, apply_at)


class TestReplicationLink:
    def test_delivery_times_are_clamped_so_the_log_never_reorders(self):
        link = ReplicationLink()
        first, second = record(1, 0.0, 0.5), record(2, 0.1, 0.2)
        link.ship(first)
        link.ship(second)
        assert second.apply_at == 0.5
        assert [r.event.sequence for r in link.take_ready(0.5)] == [1, 2]
        assert (link.shipped, link.delivered) == (2, 2)

    def test_only_records_whose_time_has_come_are_taken_in_order(self):
        link = ReplicationLink()
        for sequence, apply_at in ((1, 0.1), (2, 0.2), (3, 0.3)):
            link.ship(record(sequence, 0.0, apply_at, f"d{sequence}"))
        assert link.take_ready(0.05) == ()
        assert [r.event.sequence for r in link.take_ready(0.2)] == [1, 2]
        assert len(link) == 1
        assert link.delivered == 2

    def test_pending_records_is_a_copy_of_the_backlog(self):
        link = ReplicationLink()
        link.ship(record(1, 0.0, 0.1))
        pending = link.pending_records()
        pending.clear()
        assert len(link) == 1
        assert [r.event.sequence for r in link.pending_records()] == [1]

    def test_the_oldest_pending_timestamp_is_the_commit_time_of_the_head(self):
        link = ReplicationLink()
        assert link.oldest_pending_timestamp() is None
        link.ship(record(1, 0.4, 0.5))
        link.ship(record(2, 0.45, 0.6, "d2"))
        assert link.oldest_pending_timestamp() == 0.4
        link.take_ready(0.5)
        assert link.oldest_pending_timestamp() == 0.45

    def test_clear_drops_the_backlog_but_keeps_the_counts(self):
        link = ReplicationLink()
        link.ship(record(1, 0.0, 0.1))
        link.clear()
        assert len(link) == 0 and link.oldest_pending_timestamp() is None
        assert link.shipped == 1


class TestReplicaBacklog:
    def test_lag_and_staleness_read_the_links_backlog(self):
        node = ReplicaNode("s0:n1", VirtualClock(), Database())
        assert node.lag_records == 0
        assert node.staleness_at(3.0) == 0.0
        node.link.ship(record(1, 1.0, 1.5))
        node.link.ship(record(2, 1.2, 1.6, "d2"))
        assert node.lag_records == 2
        assert node.staleness_at(3.0) == pytest.approx(2.0)
        # Never negative, even when asked about a time before the commit.
        assert node.staleness_at(0.5) == 0.0

    def test_delivery_applies_the_records_and_advances_the_watermark(self):
        node = ReplicaNode("s0:n1", VirtualClock(), Database())
        node.link.ship(record(1, 1.0, 1.5))
        node.link.ship(record(2, 1.2, 1.6, "d2"))
        assert node.deliver_until(1.55) == 1
        assert (node.applied_sequence, node.applied_timestamp) == (1, 1.0)
        assert node.database.collection("posts").get("d1")["views"] == 1
        assert node.deliver_until(2.0) == 1
        assert node.records_applied == 2 and node.lag_records == 0
        assert node.staleness_at(2.0) == 0.0

    def test_a_missing_frontier_is_trivially_caught_up(self):
        node = ReplicaNode("s0:n1", VirtualClock(), Database())
        node.link.ship(record(1, 1.0, 1.5))
        assert node.caught_up_to(None)

    def test_the_watermark_passing_the_frontier_is_caught_up(self):
        node = ReplicaNode("s0:n1", VirtualClock(), Database())
        node.link.ship(record(1, 1.0, 1.5))
        node.link.ship(record(2, 2.0, 2.5, "d2"))
        assert not node.caught_up_to(1.0)
        node.deliver_until(1.5)
        assert node.caught_up_to(1.0)
        assert not node.caught_up_to(2.0)

    def test_an_empty_sound_link_proves_nothing_is_outstanding(self):
        node = ReplicaNode("s0:n1", VirtualClock(), Database())
        assert node.caught_up_to(7.0)

    def test_an_empty_link_after_a_crash_proves_nothing(self):
        node = ReplicaNode("s0:n1", VirtualClock(), Database())
        node.link_sound = False
        assert not node.caught_up_to(7.0)
        node.applied_timestamp = 7.0
        assert node.caught_up_to(7.0)
