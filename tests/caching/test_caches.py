"""Tests for cache entries, expiration-based and invalidation-based caches."""

from __future__ import annotations

import pytest

from repro.caching import CacheEntry, ExpirationCache, InvalidationCache
from repro.clock import VirtualClock
from repro.rest import Response


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


class TestCacheEntry:
    def test_freshness_window(self):
        entry = CacheEntry(key="k", body=1, etag=None, stored_at=10.0, ttl=5.0)
        assert entry.fresh_until == 15.0

    def test_refreshed_restamps(self):
        entry = CacheEntry(key="k", body=1, etag='"e"', stored_at=0.0, ttl=5.0)
        refreshed = entry.refreshed(now=10.0)
        assert refreshed.stored_at == 10.0
        assert refreshed.fresh_until == 15.0
        assert refreshed.etag == '"e"'

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            CacheEntry(key="k", body=1, etag=None, stored_at=0.0, ttl=-1.0)


class TestExpirationCache:
    def test_serves_fresh_entries(self, clock):
        cache = ExpirationCache("browser", clock)
        cache.store("key", Response.ok("body", ttl=10.0))
        entry = cache.lookup("key", clock.now())
        assert entry is not None and entry.body == "body"
        assert cache.stats.hits == 1

    def test_expired_entries_are_misses(self, clock):
        cache = ExpirationCache("browser", clock)
        cache.store("key", Response.ok("body", ttl=5.0))
        clock.advance(6.0)
        assert cache.lookup("key", clock.now()) is None
        assert cache.stats.stale_hits == 1

    def test_uncacheable_responses_are_not_stored(self, clock):
        cache = ExpirationCache("browser", clock)
        assert cache.store("key", Response.uncacheable("body")) is None
        assert "key" not in cache

    def test_private_cache_uses_max_age_not_smaxage(self, clock):
        cache = ExpirationCache("browser", clock, shared=False)
        cache.store("key", Response.ok("body", ttl=2.0, shared_ttl=100.0))
        clock.advance(3.0)
        assert cache.lookup("key", clock.now()) is None

    def test_shared_cache_uses_smaxage(self, clock):
        cache = ExpirationCache("isp-proxy", clock, shared=True)
        cache.store("key", Response.ok("body", ttl=2.0, shared_ttl=100.0))
        clock.advance(3.0)
        assert cache.lookup("key", clock.now()) is not None

    def test_no_purge_support(self, clock):
        assert ExpirationCache("browser", clock).supports_purge is False

    def test_lru_eviction(self, clock):
        cache = ExpirationCache("browser", clock, max_entries=2)
        cache.store("a", Response.ok(1, ttl=100))
        cache.store("b", Response.ok(2, ttl=100))
        cache.lookup("a", clock.now())  # a becomes most recently used
        cache.store("c", Response.ok(3, ttl=100))
        assert "a" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_peek_does_not_count(self, clock):
        cache = ExpirationCache("browser", clock)
        cache.store("key", Response.ok(1, ttl=1.0))
        clock.advance(5.0)
        assert cache.peek("key") is not None
        assert cache.stats.misses == 0


def _entry(key, body=1, etag=None):
    return CacheEntry(key=key, body=body, etag=etag, stored_at=0.0, ttl=1.0)


class TestRestamp:
    def test_restamp_matches_store_of_a_cacheable_response(self, clock):
        """A restamped entry is the entry a cacheable 200 would produce."""
        via_response = ExpirationCache("slow", clock)
        via_batch = ExpirationCache("batch", clock)
        clock.advance(3.0)
        stored = via_response.store(
            "k", Response.ok({"document": {"a": 1}}, ttl=7.0, etag='"e"')
        )
        via_batch.restamp([_entry("k", {"document": {"a": 1}}, '"e"')], 7.0, clock.now())
        assert via_batch.peek("k") == stored
        assert via_batch.lookup("k", clock.now()).body == via_response.lookup("k", clock.now()).body
        assert via_batch.stats.stores == 1

    def test_restamp_stores_nothing_for_a_non_positive_ttl(self, clock):
        cache = ExpirationCache("c", clock)
        entry = _entry("k")
        cache.restamp([entry], 0.0, clock.now())
        cache.restamp([entry], -1.0, clock.now())
        assert "k" not in cache
        assert cache.stats.stores == 0
        # A negative TTL never reaches the entry either.
        assert entry.ttl == 1.0

    def test_restamp_respects_lru_bound_like_single_stores(self, clock):
        cache = ExpirationCache("c", clock, max_entries=2)
        cache.restamp([_entry("a"), _entry("b"), _entry("c")], 10.0, clock.now())
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert cache.stats.evictions == 1
        # Re-storing an evicted key mid-batch evicts again, exactly as three
        # single stores would: b, c | a -> c, a | b -> a, b | c -> b, c.
        cache.restamp([_entry("a"), _entry("b"), _entry("c")], 10.0, clock.now())
        assert list(cache._entries) == ["b", "c"]
        assert cache.stats.evictions == 4
        assert cache.stats.stores == 6

    def test_restamp_applies_the_ttl_of_each_call(self, clock):
        cache = ExpirationCache("c", clock)
        entries = [_entry("a"), _entry("b")]
        cache.restamp(entries, 10.0, clock.now())
        clock.advance(4.0)
        cache.restamp(entries, 2.5, clock.now())
        assert [cache.peek(key).fresh_until for key in ("a", "b")] == [6.5, 6.5]
        clock.advance(2.5)
        assert cache.lookup("a", clock.now()) is None

    def test_restamp_moves_existing_keys_to_the_recent_end(self, clock):
        # Recency is observable only where something evicts: a bounded cache.
        cache = ExpirationCache("c", clock, max_entries=2)
        first, second = _entry("a"), _entry("b")
        cache.restamp([first, second], 10.0, clock.now())
        cache.restamp([first], 10.0, clock.now())
        cache.restamp([_entry("c")], 10.0, clock.now())  # evicts the least recent key
        assert "b" not in cache
        assert "a" in cache and "c" in cache


class TestInvalidationCache:
    def test_purge_removes_entry(self, clock):
        cdn = InvalidationCache("cdn", clock)
        cdn.store("key", Response.ok("body", ttl=100.0))
        assert cdn.purge("key") is True
        assert cdn.lookup("key", clock.now()) is None
        assert cdn.stats.purges == 1

    def test_purge_missing_key(self, clock):
        cdn = InvalidationCache("cdn", clock)
        assert cdn.purge("missing") is False

    def test_is_shared_cache(self, clock):
        cdn = InvalidationCache("cdn", clock)
        cdn.store("key", Response.ok("body", ttl=1.0, shared_ttl=50.0))
        clock.advance(10.0)
        assert cdn.lookup("key", clock.now()) is not None
        assert cdn.supports_purge is True

    def test_statistics_dictionary(self, clock):
        cdn = InvalidationCache("cdn", clock)
        cdn.store("key", Response.ok("body", ttl=10.0))
        cdn.lookup("key", clock.now())
        cdn.lookup("missing", clock.now())
        stats = cdn.stats.as_dict()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
