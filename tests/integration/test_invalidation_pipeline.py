"""Integration tests of the invalidation pipeline's correctness.

The key safety property: whenever a write changes the result of a registered
query, the query must end up flagged in the Expiring Bloom Filter and purged
from the CDN before the change could otherwise go unnoticed.  These tests
drive randomized write sequences through the full server and cross-check the
flagged set against a brute-force re-execution of every query.
"""

from __future__ import annotations

import random

import pytest

from repro.caching import InvalidationCache
from repro.core import QuaestorConfig, QuaestorServer
from repro.db import Database, Query
from repro.invalidb import InvaliDBCluster


@pytest.fixture
def world(clock):
    database = Database(clock=clock)
    items = database.create_collection("items")
    items.create_index("category")
    for index in range(60):
        items.insert({"_id": f"i{index}", "category": index % 6, "price": index, "stock": 10})
    server = QuaestorServer(
        database, config=QuaestorConfig(), invalidb=InvaliDBCluster(matching_nodes=4)
    )
    cdn = InvalidationCache("cdn", clock)
    server.register_purge_target(cdn)
    queries = [Query("items", {"category": value}) for value in range(6)]
    queries.append(Query("items", {"price": {"$gte": 40}}))
    queries.append(Query("items", {"stock": {"$lt": 5}}))
    return {"database": database, "server": server, "cdn": cdn, "queries": queries}


def snapshot_results(database, queries):
    return {query.cache_key: {doc["_id"] for doc in database.find(query)} for query in queries}


class TestInvalidationCompleteness:
    def test_every_result_change_is_flagged(self, world, clock):
        """No missed invalidations under a randomized update sequence."""
        database, server, queries = world["database"], world["server"], world["queries"]
        for query in queries:
            server.handle_query(query)
        before = snapshot_results(database, queries)

        rng = random.Random(42)
        for step in range(120):
            clock.advance(0.05)
            document_id = f"i{rng.randrange(60)}"
            choice = rng.random()
            if choice < 0.4:
                server.handle_update("items", document_id, {"$set": {"category": rng.randrange(6)}})
            elif choice < 0.7:
                server.handle_update("items", document_id, {"$inc": {"price": rng.randint(-5, 5)}})
            else:
                server.handle_update("items", document_id, {"$inc": {"stock": -1}})

        after = snapshot_results(database, queries)
        for query in queries:
            key = query.cache_key
            if before[key] != after[key]:
                # Result membership changed -> the EBF must flag the query
                # (its TTL has not expired because the clock advanced by only
                # a few seconds and minimum TTLs are >= 1 s with CDN factor 3).
                assert server.ebf.contains(key), f"missed invalidation for {key}"

    def test_object_list_queries_flag_content_changes_too(self, world, clock):
        server, queries = world["server"], world["queries"]
        category_query = queries[0]
        server.handle_query(category_query)
        member = next(iter(snapshot_results(world["database"], [category_query]).values()))
        target = sorted(member)[0]
        # A price change keeps the membership but changes the content.
        server.handle_update("items", target, {"$inc": {"price": 1}})
        assert server.ebf.contains(category_query.cache_key)

    def test_cdn_purge_accompanies_every_query_invalidation(self, world, clock):
        server, cdn, queries = world["server"], world["cdn"], world["queries"]
        query = queries[1]
        response = server.handle_query(query)
        cdn.store(query.cache_key, response)
        server.handle_update("items", "i1", {"$set": {"category": 0}})
        assert query.cache_key not in cdn

    def test_unregistered_queries_do_not_generate_invalidations(self, world):
        server = world["server"]
        before = server.counters.get("query_invalidations")
        server.handle_update("items", "i3", {"$set": {"category": 1}})
        assert server.counters.get("query_invalidations") == before

    def test_expired_queries_stop_being_flagged(self, world, clock):
        server, queries = world["server"], world["queries"]
        query = queries[2]
        server.handle_query(query)
        ttl = server.active_list.get(query.cache_key).current_ttl
        cdn_ttl = ttl * server.config.cdn_ttl_factor
        clock.advance(cdn_ttl + 1.0)
        server.handle_update("items", "i2", {"$set": {"category": 2}})
        # The highest issued TTL has expired, so no cache can hold the entry
        # and the EBF does not need to flag it.
        assert not server.ebf.contains(query.cache_key)


class TestThroughputAccounting:
    def test_matching_operations_scale_with_queries_and_events(self, world):
        server, queries = world["server"], world["queries"]
        for query in queries:
            server.handle_query(query)
        before_ops = sum(node.match_operations for node in server.invalidb.nodes)
        for index in range(20):
            server.handle_update("items", f"i{index}", {"$inc": {"price": 1}})
        after_ops = sum(node.match_operations for node in server.invalidb.nodes)
        stateless_queries = sum(1 for query in queries if not query.is_stateful)
        # The matching index prunes the fan-out: each price update touches the
        # two range queries (never equality-indexable) plus the one category
        # query whose indexed value appears in the before/after images -- not
        # all eight stateless queries like the legacy full scan did.
        assert after_ops - before_ops == 20 * 3
        assert after_ops - before_ops < 20 * stateless_queries
