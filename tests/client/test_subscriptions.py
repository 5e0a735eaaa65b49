"""Tests for real-time query subscriptions (the EBF alternative)."""

from __future__ import annotations

import pytest

from repro.client import SubscriptionManager
from repro.core import QuaestorConfig, QuaestorServer
from repro.db import Query
from repro.invalidb import InvaliDBCluster, NotificationType


@pytest.fixture
def server(database, posts):
    return QuaestorServer(
        database, config=QuaestorConfig(), invalidb=InvaliDBCluster(matching_nodes=2)
    )


@pytest.fixture
def manager(server):
    return SubscriptionManager(server)


class TestSubscriptionLifecycle:
    def test_subscription_starts_with_current_result(self, manager, example_query):
        subscription = manager.subscribe(example_query)
        assert len(subscription) == 10
        assert len(manager._subscriptions) == 1

    def test_resubscribing_returns_same_handle(self, manager, example_query):
        assert manager.subscribe(example_query) is manager.subscribe(example_query)
        assert len(manager._subscriptions) == 1

    def test_close_detaches_everything(self, manager, server, example_query):
        subscription = manager.subscribe(example_query)
        manager.close()
        server.handle_update("posts", "p1", {"$set": {"tags": ["example"]}})
        assert len(subscription.events) == 0


class TestLiveMaintenance:
    def test_add_notification_grows_the_result(self, manager, server, example_query):
        subscription = manager.subscribe(example_query)
        server.handle_update("posts", "p1", {"$set": {"tags": ["example"]}})
        assert len(subscription) == 11
        assert subscription.events[-1].type is NotificationType.ADD

    def test_remove_notification_shrinks_the_result(self, manager, server, example_query):
        subscription = manager.subscribe(example_query)
        server.handle_update("posts", "p0", {"$set": {"tags": ["other"]}})
        assert len(subscription) == 9
        assert subscription.events[-1].type is NotificationType.REMOVE

    def test_change_notification_updates_content(self, manager, server, example_query):
        subscription = manager.subscribe(example_query)
        server.handle_update("posts", "p0", {"$set": {"views": 999}})
        updated = {doc["_id"]: doc for doc in subscription.result()}["p0"]
        assert updated["views"] == 999
        assert subscription.events[-1].type is NotificationType.CHANGE

    def test_listeners_receive_snapshots(self, manager, server, example_query):
        subscription = manager.subscribe(example_query)
        received = []
        subscription.on_change(lambda kind, doc_id, snapshot: received.append((kind, doc_id, len(snapshot))))
        server.handle_update("posts", "p1", {"$set": {"tags": ["example"]}})
        assert received == [(NotificationType.ADD, "p1", 11)]

    def test_sorted_subscription_respects_window(self, manager, server):
        top3 = Query("posts", {"tags": "example"}, sort=[("views", -1)], limit=3)
        subscription = manager.subscribe(top3)
        assert [doc["_id"] for doc in subscription.result()] == ["p18", "p16", "p14"]
        server.handle_update("posts", "p0", {"$set": {"views": 1000}})
        assert [doc["_id"] for doc in subscription.result()][0] == "p0"
        assert len(subscription) == 3

    def test_unrelated_writes_do_not_disturb_subscription(self, manager, server, example_query):
        subscription = manager.subscribe(example_query)
        server.handle_update("posts", "p1", {"$inc": {"views": 1}})  # p1 not in result
        assert len(subscription.events) == 0
        assert len(subscription) == 10

    def test_deleted_member_is_removed(self, manager, server, example_query):
        subscription = manager.subscribe(example_query)
        server.handle_delete("posts", "p2")
        assert "p2" not in {doc["_id"] for doc in subscription.result()}
