"""Tests for the client SDK: cached loads, revalidations, consistency levels."""

from __future__ import annotations

import gc

import pytest

from repro.caching import InvalidationCache
from repro.caching.entry import CacheEntry
from repro.client import QuaestorClient
from repro.client import sdk as sdk_module
from repro.core import ConsistencyLevel, QuaestorConfig, QuaestorServer
from repro.core.representation import object_list_body
from repro.db import Query
from repro.invalidb import InvaliDBCluster
from repro.rest import Response


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


@pytest.fixture
def client(server, cdn, clock):
    sdk = QuaestorClient(server, cdn=cdn, clock=clock, refresh_interval=10.0)
    sdk.connect()
    return sdk


class TestCachedLoads:
    def test_first_query_hits_origin_then_client_cache(self, client, example_query):
        assert client.query(example_query).level == "origin"
        assert client.query(example_query).level == "client"

    def test_query_results_cache_member_records(self, client, example_query):
        client.query(example_query)
        record = client.read("posts", "p0")
        assert record.level == "client"
        assert record.value["_id"] == "p0"

    def test_reads_cache_individually(self, client):
        assert client.read("posts", "p1").level == "origin"
        assert client.read("posts", "p1").level == "client"

    def test_second_client_benefits_from_cdn(self, server, cdn, clock, example_query):
        first = QuaestorClient(server, cdn=cdn, clock=clock, name="first")
        second = QuaestorClient(server, cdn=cdn, clock=clock, name="second")
        first.connect()
        second.connect()
        first.query(example_query)
        assert second.query(example_query).level == "cdn"

    def test_client_without_caches_always_hits_origin(self, server, clock, example_query):
        uncached = QuaestorClient(
            server, cdn=None, clock=clock, use_client_cache=False, use_ebf=False
        )
        assert uncached.query(example_query).level == "origin"
        assert uncached.query(example_query).level == "origin"

    def test_missing_record_returns_none(self, client):
        result = client.read("posts", "does-not-exist")
        assert result.value is None


class TestEbfDrivenRevalidation:
    def test_stale_query_revalidated_after_refresh(self, client, example_query, clock):
        client.query(example_query)
        # Another client's write changes the result set.
        client.server.handle_update("posts", "p1", {"$set": {"tags": ["example"]}})
        clock.advance(11.0)  # past the refresh interval
        result = client.query(example_query)
        assert result.level in ("origin", "cdn")
        assert len(result.value) == 11

    def test_within_delta_stale_cache_hit_is_allowed(self, client, example_query, clock):
        client.query(example_query)
        client.server.handle_update("posts", "p1", {"$set": {"tags": ["example"]}})
        clock.advance(1.0)  # still within Delta
        result = client.query(example_query)
        assert result.level == "client"
        assert len(result.value) == 10  # bounded staleness

    def test_whitelist_prevents_repeated_revalidations(self, client, example_query, clock):
        client.query(example_query)
        client.server.handle_update("posts", "p0", {"$set": {"tags": ["other"]}})
        clock.advance(11.0)
        first = client.query(example_query)   # revalidation (EBF refresh due)
        second = client.query(example_query)  # whitelisted -> client cache
        assert first.level in ("origin", "cdn")
        assert second.level == "client"

    def test_ebf_refresh_counter(self, client, example_query, clock):
        client.query(example_query)
        clock.advance(11.0)
        client.query(example_query)
        assert client.counters.get("ebf_refreshes") >= 2  # connect + refresh


class TestSessionGuarantees:
    def test_read_your_writes(self, client):
        client.update("posts", "p0", {"$set": {"views": 123}})
        result = client.read("posts", "p0")
        assert result.value["views"] == 123

    def test_monotonic_reads_never_regress(self, client, cdn, clock):
        # Client observes version 2 via a direct read after a write.
        client.update("posts", "p2", {"$inc": {"views": 1}})
        first = client.read("posts", "p2")
        assert first.version == 2
        # Another client's stale CDN copy of version 1 exists; force it into
        # the CDN to simulate an out-of-date edge node.
        from repro.db.query import record_key
        from repro.rest.messages import Response

        stale_body = {"document": {"_id": "p2", "views": 0}, "version": 1}
        cdn.store(record_key("posts", "p2"), Response.ok(stale_body, ttl=100.0, etag='"old"'))
        client.client_cache.remove(record_key("posts", "p2"))
        result = client.read("posts", "p2")
        assert result.version >= 2  # session fallback, no regression

    def test_own_update_invalidates_client_cache_copy(self, client):
        client.read("posts", "p3")
        client.update("posts", "p3", {"$inc": {"views": 5}})
        result = client.read("posts", "p3")
        # p3 starts with views=3 (fixture); the session must observe 3 + 5.
        assert result.value["views"] == 8

    def test_insert_and_delete_through_sdk(self, client, database):
        result = client.insert("posts", {"_id": "new-post", "tags": ["example"], "views": 0})
        assert result.version == 1
        assert database.get("posts", "new-post")["views"] == 0
        client.delete("posts", "new-post")
        assert database.collection("posts")._documents.get("new-post") is None

    def test_reinsert_reports_the_continued_version(self, client, database):
        """Versions never recycle: re-inserting a deleted _id continues its
        sequence, and the SDK must report the server-assigned version (the
        session otherwise records a version that aliases other content)."""
        client.insert("posts", {"_id": "phoenix", "views": 0})
        client.update("posts", "phoenix", {"$inc": {"views": 1}})
        client.delete("posts", "phoenix")
        reborn = client.insert("posts", {"_id": "phoenix", "views": 99})
        assert reborn.version == 3
        assert client.session.monotonic_fallback("record:posts/phoenix")[0] == 3
        read = client.read("posts", "phoenix")
        assert read.version == 3
        assert read.value["views"] == 99


class TestConsistencyLevels:
    def test_strong_consistency_bypasses_caches(self, client, example_query):
        client.query(example_query)
        result = client.query(example_query, consistency=ConsistencyLevel.STRONG)
        assert result.level == "origin"

    def test_strong_read_sees_latest_write_immediately(self, client, example_query):
        client.query(example_query)
        client.server.handle_update("posts", "p1", {"$set": {"tags": ["example"]}})
        stale = client.query(example_query)
        fresh = client.query(example_query, consistency=ConsistencyLevel.STRONG)
        assert len(stale.value) == 10
        assert len(fresh.value) == 11

    def test_causal_session_revalidates_after_newer_read(self, server, cdn, clock):
        causal = QuaestorClient(
            server, cdn=cdn, clock=clock, refresh_interval=60.0,
            consistency=ConsistencyLevel.CAUSAL, name="causal",
        )
        causal.connect()
        causal.read("posts", "p0")          # origin read (newer than the EBF)
        second = causal.read("posts", "p0")  # must revalidate, not client-cache
        assert second.level != "client"

    def test_default_client_serves_from_cache(self, client):
        client.read("posts", "p0")
        assert client.read("posts", "p0").level == "client"


def live_cache_entries() -> int:
    gc.collect()
    return sum(type(item) is CacheEntry for item in gc.get_objects())


class TestPreparedRecordMemo:
    def test_a_superseded_result_version_is_released(self, database, posts, clock):
        """The memo keeps one prepared version per query, so the
        ``CacheEntry`` objects a client keeps alive beyond its cache's own do
        not grow with the number of result versions it has been served."""
        sdk = QuaestorClient(QuaestorServer(database), clock=clock)
        sdk.connect()
        query = Query("posts", {"tags": "example"})
        before = live_cache_entries()
        for _ in range(40):
            sdk.server.handle_update("posts", "p0", {"$inc": {"views": 1}})
            served = sdk.query(query, consistency=ConsistencyLevel.STRONG)
            assert served.level == "origin" and len(served.value) == 10
        assert len(sdk._prepared_records) == 1
        assert live_cache_entries() - before <= len(sdk.client_cache) + 10

    def test_a_long_tail_of_distinct_queries_ages_out(self, database, posts, clock, monkeypatch):
        """An LRU over the queries bounds the memo itself: many one-off
        queries leave a bounded number of ``CacheEntry`` objects alive beyond
        the client cache's own, and a query still in use stays prepared."""
        monkeypatch.setattr(sdk_module, "_PREPARED_QUERIES", 4)
        sdk = QuaestorClient(QuaestorServer(database), clock=clock)
        sdk.connect()
        hot = Query("posts", {"tags": "other"})
        before = live_cache_entries()
        for bound in range(60):
            assert len(sdk.query(Query("posts", {"views": {"$lt": 100 + bound}})).value) == 20
            sdk.query(hot)
        assert len(sdk._prepared_records) == 4
        assert hot.cache_key in sdk._prepared_records
        assert live_cache_entries() - before <= len(sdk.client_cache) + 4 * 20

    def test_a_re_served_result_version_applies_the_current_record_ttl(self, clock):
        """The same result version can come back with another ``record_ttl``
        (the TTL estimator moved in between); its members must be restamped
        with the TTL of *this* serving, and a non-positive one stores nothing."""
        documents = [{"_id": "a", "n": 1}, {"_id": "b", "n": 2}]
        body = object_list_body(documents, {"a": 1, "b": 1}, record_ttl=10.0)

        class Origin:
            def handle_query(self, query):
                return Response.ok(dict(body), ttl=50.0, etag='"result-v1"')

        origin = Origin()
        origin.clock = clock
        sdk = QuaestorClient(origin, clock=clock, use_ebf=False)
        query = Query("things", {})
        strong = ConsistencyLevel.STRONG  # every serve comes from the origin

        def member_expiries():
            return [sdk.client_cache.peek(f"record:things/{name}").fresh_until for name in "ab"]

        sdk.query(query, consistency=strong)
        assert member_expiries() == [10.0, 10.0]
        clock.advance(1.0)
        body["record_ttl"] = 2.5
        sdk.query(query, consistency=strong)
        assert member_expiries() == [3.5, 3.5]
        stores = sdk.client_cache.stats.stores
        for unusable in (0.0, -4.0):
            clock.advance(0.25)
            body["record_ttl"] = unusable
            sdk.query(query, consistency=strong)
            assert member_expiries() == [3.5, 3.5]
            assert sdk.client_cache.peek("record:things/a").ttl == 2.5
        # Only the result itself was stored by those two serves.
        assert sdk.client_cache.stats.stores == stores + 2


class TestIdListAssembly:
    def test_id_list_queries_fetch_records_individually(self, database, posts, clock):
        config = QuaestorConfig(object_list_max_size=0)  # force id-lists
        server = QuaestorServer(database, config=config)
        cdn = InvalidationCache("cdn", clock)
        server.register_purge_target(cdn)
        sdk = QuaestorClient(server, cdn=cdn, clock=clock)
        sdk.connect()
        query = Query("posts", {"tags": "example"})
        result = sdk.query(query)
        assert len(result.value) == 10
        assert len(result.extra_levels) == 10
        # Records fetched during assembly are now cached individually.
        assert sdk.read("posts", "p0").level == "client"
