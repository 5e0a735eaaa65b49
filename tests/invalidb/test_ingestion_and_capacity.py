"""Tests for the ingestion queues and the capacity manager."""

from __future__ import annotations

import pytest

from repro.db.changestream import ChangeEvent, OperationType
from repro.db.query import Query
from repro.invalidb import CapacityManager, InvaliDBCluster, NotificationType
from repro.invalidb.ingestion import (
    ChangestreamIngestionTask,
    InvaliDBFrontend,
    QueryActivation,
    QueryIngestionTask,
)
from repro.kvstore import MessageQueue


def admit(manager: CapacityManager, query_key: str, result_size: int = 0) -> bool:
    """Probe and immediately commit, as the read path does."""
    ticket = manager.probe(query_key, result_size=result_size)
    return ticket.admitted and manager.commit(ticket)


def make_event(sequence: int, document_id: str, category: int) -> ChangeEvent:
    return ChangeEvent(
        sequence=sequence,
        operation=OperationType.UPDATE,
        collection="posts",
        document_id=document_id,
        before=None,
        after={"_id": document_id, "category": category},
        timestamp=float(sequence),
    )


class TestIngestionTasks:
    def test_query_ingestion_activates(self):
        cluster = InvaliDBCluster()
        frontend = InvaliDBFrontend(cluster)
        query = Query("posts", {"category": 1})
        frontend.submit_activation(query, [])
        frontend.pump()
        assert cluster.is_registered(query.cache_key)

    def test_change_ingestion_produces_notifications(self):
        cluster = InvaliDBCluster()
        frontend = InvaliDBFrontend(cluster)
        query = Query("posts", {"category": 1})
        frontend.submit_activation(query, [])
        frontend.submit_change(make_event(1, "d1", 1))
        notifications = frontend.pump()
        assert [n.type for n in notifications] == [NotificationType.ADD]

    def test_activations_processed_before_changes(self):
        """A change submitted right after the activation must not be missed."""
        cluster = InvaliDBCluster()
        frontend = InvaliDBFrontend(cluster)
        query = Query("posts", {"category": 2})
        frontend.submit_activation(query, [])
        frontend.submit_change(make_event(1, "d9", 2))
        notifications = frontend.pump()
        assert len(notifications) == 1

    def test_bounded_queue_rejects_overflow(self):
        cluster = InvaliDBCluster()
        frontend = InvaliDBFrontend(cluster, queue_capacity=1)
        assert frontend.submit_change(make_event(1, "d1", 1)) is True
        assert frontend.submit_change(make_event(2, "d2", 1)) is False

    def test_unexpected_queue_items_rejected(self):
        cluster = InvaliDBCluster()
        queue = MessageQueue("bogus")
        queue.offer("not-an-event")
        with pytest.raises(TypeError):
            ChangestreamIngestionTask(queue, cluster).run_once()
        queue = MessageQueue("bogus2")
        queue.offer(42)
        with pytest.raises(TypeError):
            QueryIngestionTask(queue, cluster).run_once()

    def test_query_activation_dataclass_holds_initial_result(self):
        activation = QueryActivation(Query("posts", {}), [{"_id": "a"}])
        assert activation.initial_result[0]["_id"] == "a"


class TestCapacityManager:
    def test_admits_within_capacity(self):
        manager = CapacityManager(InvaliDBCluster(), expected_update_rate=100.0)
        assert admit(manager, "query:a", result_size=10) is True
        assert "query:a" in manager._admitted

    def test_limit_by_max_active_queries(self):
        manager = CapacityManager(InvaliDBCluster(), max_active_queries=2)
        assert admit(manager, "q1") and admit(manager, "q2")
        assert admit(manager, "q3") is False
        assert manager.rejections == 1

    def test_already_admitted_queries_stay_admitted(self):
        manager = CapacityManager(InvaliDBCluster(), max_active_queries=1)
        assert admit(manager, "q1")
        assert admit(manager, "q1")
        assert sorted(manager._admitted) == ["q1"]

    def test_popular_query_displaces_low_scoring_one(self):
        manager = CapacityManager(InvaliDBCluster(), max_active_queries=1)
        admit(manager, "cold-query")
        manager.record_invalidation("cold-query")
        manager.record_invalidation("cold-query")
        # The hot candidate has many reads and no invalidations.
        for _ in range(20):
            manager.record_read("hot-query", result_size=5)
        assert admit(manager, "hot-query") is True
        assert "hot-query" in manager._admitted
        assert "cold-query" not in manager._admitted

    def test_capacity_limit_scales_with_cluster_size(self):
        small = CapacityManager(InvaliDBCluster(matching_nodes=1), expected_update_rate=1000.0)
        large = CapacityManager(InvaliDBCluster(matching_nodes=4), expected_update_rate=1000.0)
        assert large.capacity_limit() > small.capacity_limit()

    def test_zero_update_rate_means_unbounded(self):
        manager = CapacityManager(InvaliDBCluster(), expected_update_rate=0.0)
        assert manager.capacity_limit() == float("inf")

    def test_score_prefers_read_heavy_low_churn_queries(self):
        manager = CapacityManager(InvaliDBCluster())
        for _ in range(10):
            manager.record_read("popular", result_size=10)
        manager.record_read("churny", result_size=10)
        for _ in range(5):
            manager.record_invalidation("churny")
        assert manager.cost("popular").score > manager.cost("churny").score

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            CapacityManager(InvaliDBCluster(), headroom=0.0)
        with pytest.raises(ValueError):
            CapacityManager(InvaliDBCluster(), expected_update_rate=-1.0)


class TestTwoPhaseAdmission:
    def test_probe_does_not_take_the_slot(self):
        manager = CapacityManager(InvaliDBCluster(), max_active_queries=2)
        ticket = manager.probe("q1", result_size=3)
        assert ticket.admitted is True
        assert "q1" not in manager._admitted

    def test_commit_takes_the_slot(self):
        manager = CapacityManager(InvaliDBCluster(), max_active_queries=2)
        ticket = manager.probe("q1")
        assert manager.commit(ticket) is True
        assert "q1" in manager._admitted

    def test_abort_leaves_the_admitted_set_untouched(self):
        manager = CapacityManager(InvaliDBCluster(), max_active_queries=1)
        ticket = manager.probe("q1")
        manager.abort(ticket)
        assert "q1" not in manager._admitted
        assert manager.aborts == 1
        # The slot is still free for the next candidate.
        assert admit(manager, "q2") is True

    def test_aborted_probe_does_not_displace_the_victim(self):
        manager = CapacityManager(InvaliDBCluster(), max_active_queries=1)
        admit(manager, "cold-query")
        manager.record_invalidation("cold-query")
        manager.record_invalidation("cold-query")
        for _ in range(20):
            manager.record_read("hot-query", result_size=5)
        ticket = manager.probe("hot-query")
        assert ticket.admitted and ticket.victim_key == "cold-query"
        # Between probe and commit the victim keeps its slot...
        assert "cold-query" in manager._admitted
        manager.abort(ticket)
        # ...and an abort never evicts it.
        assert "cold-query" in manager._admitted
        assert "hot-query" not in manager._admitted

    def test_commit_displaces_the_victim(self):
        manager = CapacityManager(InvaliDBCluster(), max_active_queries=1)
        admit(manager, "cold-query")
        manager.record_invalidation("cold-query")
        manager.record_invalidation("cold-query")
        for _ in range(20):
            manager.record_read("hot-query", result_size=5)
        ticket = manager.probe("hot-query")
        manager.commit(ticket)
        assert "hot-query" in manager._admitted
        assert "cold-query" not in manager._admitted

    def test_rejected_ticket_cannot_be_committed(self):
        manager = CapacityManager(InvaliDBCluster(), max_active_queries=1)
        admit(manager, "q1")
        for _ in range(20):
            manager.record_read("q1", result_size=0)
        ticket = manager.probe("q2")
        assert ticket.admitted is False
        assert manager.rejections == 1
        with pytest.raises(ValueError):
            manager.commit(ticket)

    def test_abort_of_rejected_or_idempotent_tickets_is_not_counted(self):
        manager = CapacityManager(InvaliDBCluster(), max_active_queries=1)
        admit(manager, "q1")
        for _ in range(20):
            manager.record_read("q1", result_size=0)
        rejected = manager.probe("q2")
        manager.abort(rejected)
        already = manager.probe("q1")
        assert already.already_admitted
        manager.abort(already)
        assert manager.aborts == 0

    def test_probe_counters_accumulate(self):
        manager = CapacityManager(InvaliDBCluster(), max_active_queries=2)
        manager.commit(manager.probe("q1"))
        manager.abort(manager.probe("q2"))
        assert (manager.probes, manager.commits, manager.aborts) == (2, 1, 1)

    def test_stale_ticket_commit_rearbitrates_instead_of_overfilling(self):
        manager = CapacityManager(InvaliDBCluster(), max_active_queries=1)
        ticket = manager.probe("q1")
        assert ticket.admitted and ticket.victim_key is None
        # The slot the probe saw is taken before the ticket is redeemed.
        assert admit(manager, "q2") is True
        manager.record_read("q2", result_size=0)
        assert manager.commit(ticket) is False
        assert sorted(manager._admitted) == ["q2"]

    def test_stale_ticket_commit_can_still_win_rearbitration(self):
        manager = CapacityManager(InvaliDBCluster(), max_active_queries=1)
        for _ in range(20):
            manager.record_read("hot", result_size=0)
        ticket = manager.probe("hot")
        assert admit(manager, "weak") is True
        # The hot candidate still displaces the interleaved occupant.
        assert manager.commit(ticket) is True
        assert sorted(manager._admitted) == ["hot"]

    def test_stale_victim_commit_respects_the_limit(self):
        manager = CapacityManager(InvaliDBCluster(), max_active_queries=1)
        admit(manager, "cold")
        for _ in range(20):
            manager.record_read("hot", result_size=0)
        ticket = manager.probe("hot")
        assert ticket.victim_key == "cold"
        # The victim disappears and a stronger occupant takes the slot.
        del manager._admitted["cold"]
        admit(manager, "stronger")
        for _ in range(50):
            manager.record_read("stronger", result_size=0)
        assert manager.commit(ticket) is False
        assert sorted(manager._admitted) == ["stronger"]
