"""Tests for the Quaestor server middleware."""

from __future__ import annotations

import pytest

from repro.caching import InvalidationCache
from repro.core import QuaestorConfig, QuaestorServer, ResultRepresentation
from repro.db import Query
from repro.db.query import record_key
from repro.invalidb import InvaliDBCluster, NotificationType
from repro.rest.messages import StatusCode


@pytest.fixture
def server(database, posts):
    return QuaestorServer(
        database, config=QuaestorConfig(), invalidb=InvaliDBCluster(matching_nodes=2)
    )


@pytest.fixture
def cdn(server, clock):
    cache = InvalidationCache("cdn", clock)
    server.register_purge_target(cache)
    return cache


class TestReadPath:
    def test_read_returns_document_with_ttl_and_etag(self, server):
        response = server.handle_read("posts", "p0")
        assert response.status == StatusCode.OK
        assert response.body["document"]["_id"] == "p0"
        assert response.body["version"] == 1
        assert response.etag is not None
        assert response.is_cacheable
        assert response.ttl_for(shared=False) > 0

    def test_read_missing_document(self, server):
        response = server.handle_read("posts", "nonexistent")
        assert response.status == StatusCode.NOT_FOUND
        assert not response.is_cacheable

    def test_read_reports_to_ebf(self, server, clock):
        server.handle_read("posts", "p0")
        key = record_key("posts", "p0")
        assert key in server.ebf._cacheable_until

    def test_uncached_config_returns_uncacheable(self, database, posts):
        server = QuaestorServer(database, config=QuaestorConfig(caching=False))
        response = server.handle_read("posts", "p0")
        assert not response.is_cacheable
        assert response.body["document"]["_id"] == "p0"

    def test_cdn_gets_longer_ttl_than_clients(self, server):
        response = server.handle_read("posts", "p0")
        assert response.ttl_for(shared=True) > response.ttl_for(shared=False)


class TestQueryPath:
    def test_query_returns_object_list(self, server, example_query):
        response = server.handle_query(example_query)
        body = response.body
        assert body["representation"] == ResultRepresentation.OBJECT_LIST.value
        assert len(body["documents"]) == 10
        assert set(body["record_versions"]) == set(body["ids"])
        assert response.is_cacheable

    def test_query_registers_in_invalidb_and_active_list(self, server, example_query):
        server.handle_query(example_query)
        assert server.invalidb.is_registered(example_query.cache_key)
        assert server.active_list.get(example_query.cache_key) is not None

    def test_query_registration_is_idempotent(self, server, example_query):
        server.handle_query(example_query)
        server.handle_query(example_query)
        assert server.counters.get("queries_registered") == 1

    def test_query_reports_members_to_ebf(self, server, example_query):
        server.handle_query(example_query)
        assert record_key("posts", "p0") in server.ebf._cacheable_until

    def test_queries_uncacheable_when_disabled(self, database, posts, example_query):
        server = QuaestorServer(database, config=QuaestorConfig(caching=False))
        response = server.handle_query(example_query)
        assert not response.is_cacheable
        assert len(response.body["documents"]) == 10

    def test_capacity_rejection_serves_uncacheable(self, database, posts, example_query):
        config = QuaestorConfig(max_active_queries=0)
        server = QuaestorServer(database, config=config)
        response = server.handle_query(example_query)
        assert not response.is_cacheable
        assert server.counters.get("queries_uncacheable") == 1

    def test_stateful_query_registered_with_full_result(self, server):
        query = Query("posts", {"tags": "example"}, sort=[("views", -1)], limit=2)
        response = server.handle_query(query)
        assert len(response.body["documents"]) == 2
        assert server.invalidb.is_registered(query.cache_key)


class TestWritePathAndInvalidation:
    def test_update_invalidates_cached_query(self, server, cdn, example_query, clock):
        query_response = server.handle_query(example_query)
        cdn.store(example_query.cache_key, query_response)
        # p1 (tagged 'other') gains the 'example' tag -> result set changes.
        server.handle_update("posts", "p1", {"$set": {"tags": ["example"]}})
        assert server.ebf.contains(example_query.cache_key)
        assert example_query.cache_key not in cdn
        assert server.counters.get("query_invalidations") >= 1

    def test_update_invalidates_record_key(self, server, cdn, clock):
        read_response = server.handle_read("posts", "p0")
        cdn.store(record_key("posts", "p0"), read_response)
        server.handle_update("posts", "p0", {"$inc": {"views": 1}})
        assert server.ebf.contains(record_key("posts", "p0"))
        assert record_key("posts", "p0") not in cdn

    def test_change_event_does_not_invalidate_id_list(self, database, posts, clock):
        """Pure change notifications are ignored for id-list cached queries."""
        config = QuaestorConfig(object_list_max_size=0)  # force id-lists
        server = QuaestorServer(database, config=config)
        query = Query("posts", {"tags": "example"})
        server.handle_query(query)
        # A views increment keeps the matching status: change event only.
        server.handle_update("posts", "p0", {"$inc": {"views": 1}})
        assert not server.ebf.contains(query.cache_key)
        assert server.counters.get("notifications_ignored_id_list") >= 1

    def test_irrelevant_write_does_not_invalidate(self, server, example_query):
        server.handle_query(example_query)
        # p1 is not in the result; changing its views does not affect the query.
        server.handle_update("posts", "p1", {"$inc": {"views": 1}})
        assert not server.ebf.contains(example_query.cache_key)

    def test_insert_matching_document_invalidates(self, server, example_query):
        server.handle_query(example_query)
        server.handle_insert("posts", {"_id": "p-new", "tags": ["example"], "views": 0})
        assert server.ebf.contains(example_query.cache_key)

    def test_delete_of_member_invalidates(self, server, example_query):
        server.handle_query(example_query)
        server.handle_delete("posts", "p0")
        assert server.ebf.contains(example_query.cache_key)

    def test_write_responses_are_uncacheable(self, server):
        insert = server.handle_insert("posts", {"_id": "x1", "tags": []})
        update = server.handle_update("posts", "x1", {"$set": {"views": 1}})
        delete = server.handle_delete("posts", "x1")
        assert not insert.is_cacheable
        assert not update.is_cacheable
        assert not delete.is_cacheable
        assert insert.status == StatusCode.CREATED

    def test_write_to_missing_document(self, server):
        assert server.handle_update("posts", "ghost", {"$set": {"a": 1}}).status == StatusCode.NOT_FOUND
        assert server.handle_delete("posts", "ghost").status == StatusCode.NOT_FOUND

    def test_purge_targets_receive_invalidated_keys(self, server, example_query):
        invalidated = []
        server.register_purge_target(invalidated.append)
        server.handle_query(example_query)
        server.handle_update("posts", "p0", {"$set": {"tags": ["other"]}})
        assert example_query.cache_key in invalidated
        assert record_key("posts", "p0") in invalidated

    def test_ttl_estimator_receives_invalidation_feedback(self, server, example_query, clock):
        server.handle_query(example_query)
        clock.advance(5.0)
        server.handle_update("posts", "p0", {"$set": {"tags": ["other"]}})
        refined = server.ttl_estimator._query_ewma.get(example_query.cache_key)
        assert refined is not None


class TestInvaliDBDrainOrder:
    """After-images wait in one pending list until the server drains it into
    InvaliDB: activation first, then the pending after-images in arrival
    order.  Every write handler drains before it acknowledges."""

    def test_an_after_image_pending_at_registration_is_matched_against_the_query(
        self, server, database, example_query
    ):
        seen = []
        server.invalidb.subscribe(seen.append)
        # Writes straight to the database: no server handler drains them.
        database.update("posts", "p2", {"$inc": {"views": 1}})
        database.update("posts", "p0", {"$inc": {"views": 1}})
        server.handle_query(example_query)
        assert [(n.query_key, n.document_id, n.type) for n in seen] == [
            (example_query.cache_key, "p2", NotificationType.CHANGE),
            (example_query.cache_key, "p0", NotificationType.CHANGE),
        ]
        # Matched once: the next write's drain neither sees it again nor
        # invalidates the now cached query with it.
        server.handle_update("posts", "p1", {"$inc": {"views": 1}})
        assert len(seen) == 2
        assert server.counters.get("query_invalidations") == 0


class TestBloomFilterEndpoint:
    def test_flat_filter_reflects_staleness(self, server, example_query):
        server.handle_query(example_query)
        empty_filter = server.get_bloom_filter()
        assert not empty_filter.contains(example_query.cache_key)
        server.handle_update("posts", "p0", {"$set": {"tags": ["other"]}})
        stale_filter = server.get_bloom_filter()
        assert stale_filter.contains(example_query.cache_key)

    def test_statistics_snapshot(self, server, example_query):
        server.handle_query(example_query)
        server.handle_read("posts", "p0")
        stats = server.statistics()
        assert stats["queries"] == 1
        assert stats["reads"] == 1
        assert stats["active_queries"] == 1
