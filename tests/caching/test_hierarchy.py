"""Tests for the cache hierarchy (client cache -> CDN -> origin)."""

from __future__ import annotations

import pytest

from repro.caching import CacheHierarchy, ExpirationCache, InvalidationCache
from repro.caching.hierarchy import ORIGIN_LEVEL
from repro.clock import VirtualClock
from repro.rest import Response


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def setup(clock):
    """A two-level hierarchy with a counting origin."""
    browser = ExpirationCache("browser", clock)
    cdn = InvalidationCache("cdn", clock)
    calls = {"count": 0}

    def origin(key: str) -> Response:
        calls["count"] += 1
        return Response.ok(f"body-of-{key}-v{calls['count']}", ttl=10.0, shared_ttl=30.0, etag=f'"{calls["count"]}"')

    hierarchy = CacheHierarchy([("client", browser), ("cdn", cdn)], origin)
    return {"browser": browser, "cdn": cdn, "hierarchy": hierarchy, "calls": calls, "clock": clock}


def _fetch(setup, **options):
    """Fetch ``key`` through the fixture's hierarchy at the clock's instant."""
    return setup["hierarchy"].fetch("key", setup["clock"].now(), **options)


class TestFetch:
    def test_miss_goes_to_origin_and_populates_all_levels(self, setup):
        result = _fetch(setup)
        assert result.level == ORIGIN_LEVEL
        assert setup["calls"]["count"] == 1
        assert "key" in setup["browser"]
        assert "key" in setup["cdn"]

    def test_second_fetch_hits_client_cache(self, setup):
        _fetch(setup)
        result = _fetch(setup)
        assert result.level == "client"
        assert setup["calls"]["count"] == 1

    def test_cdn_hit_after_client_expiry(self, setup):
        _fetch(setup)
        setup["clock"].advance(15.0)  # client TTL (10 s) expired, CDN (30 s) still fresh
        result = _fetch(setup)
        assert result.level == "cdn"
        assert setup["calls"]["count"] == 1

    def test_cdn_hit_refreshes_downstream_client_cache(self, setup):
        _fetch(setup)
        setup["cdn"].purge("key")
        _fetch(setup)  # repopulates both
        setup["clock"].advance(15.0)
        _fetch(setup)  # CDN hit, copies into the client cache
        entry = setup["browser"].peek("key")
        assert entry is not None

    def test_full_expiry_returns_to_origin(self, setup):
        _fetch(setup)
        setup["clock"].advance(31.0)
        result = _fetch(setup)
        assert result.level == ORIGIN_LEVEL
        assert setup["calls"]["count"] == 2

    def test_revalidation_skips_client_cache_but_may_use_cdn(self, setup):
        _fetch(setup)
        result = _fetch(setup, revalidate=True)
        # The CDN is an invalidation-based cache, so it may answer revalidations.
        assert result.level == "cdn"
        assert result.revalidated

    def test_revalidation_goes_to_origin_when_cdn_purged(self, setup):
        _fetch(setup)
        setup["cdn"].purge("key")
        result = _fetch(setup, revalidate=True)
        assert result.level == ORIGIN_LEVEL
        assert setup["calls"]["count"] == 2

    def test_bypass_all_caches(self, setup):
        _fetch(setup)
        result = _fetch(setup, bypass_all_caches=True)
        assert result.level == ORIGIN_LEVEL
        assert setup["calls"]["count"] == 2


class TestConfiguration:
    def test_duplicate_level_names_rejected(self, clock):
        browser = ExpirationCache("a", clock)
        cdn = InvalidationCache("b", clock)
        with pytest.raises(ValueError):
            CacheHierarchy([("same", browser), ("same", cdn)], lambda key: Response.ok(1, ttl=1))

    def test_level_lookup(self, setup):
        hierarchy = setup["hierarchy"]
        assert hierarchy.level_names == ["client", "cdn"]

    def test_empty_hierarchy_always_hits_origin(self, setup):
        hierarchy = CacheHierarchy([], lambda key: Response.ok("fresh", ttl=10.0))
        assert hierarchy.fetch("key", 0.0).level == ORIGIN_LEVEL
        assert hierarchy.fetch("key", 0.0).level == ORIGIN_LEVEL

    def test_uncacheable_origin_response_not_stored(self, clock):
        browser = ExpirationCache("browser", clock)
        hierarchy = CacheHierarchy(
            [("client", browser)], lambda key: Response.uncacheable("private")
        )
        hierarchy.fetch("key", clock.now())
        assert "key" not in browser
