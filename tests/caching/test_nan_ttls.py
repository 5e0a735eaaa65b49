"""A NaN TTL never reaches a cache: it would keep an entry fresh forever.

``now >= stored_at + nan`` is always false, so an entry stamped with a NaN
TTL was served after any amount of time.  NaN passed every ``ttl < 0`` and
``ttl <= 0`` guard; each entry point below rejects it or stores nothing now,
and nothing is served once the clock has moved on.
"""

from __future__ import annotations

import math

import pytest

from repro.caching import CacheEntry, ExpirationCache
from repro.clock import VirtualClock
from repro.rest.cache_control import CacheControl
from repro.rest.messages import Response
from repro.ttl.base import TTLBounds

NAN = math.nan


def test_a_cache_entry_rejects_a_nan_ttl():
    with pytest.raises(ValueError, match="ttl"):
        CacheEntry("k", "body", None, 0.0, NAN)


@pytest.mark.parametrize("fields", [{"max_age": NAN}, {"max_age": 5.0, "s_maxage": NAN}])
def test_cache_control_rejects_a_nan_lifetime(fields):
    with pytest.raises(ValueError):
        CacheControl(**fields)


@pytest.mark.parametrize("ttls", [(NAN,), (5.0, NAN)])
def test_a_cacheable_response_rejects_a_nan_ttl(ttls):
    with pytest.raises(ValueError):
        CacheControl.cacheable(*ttls)
    with pytest.raises(ValueError):
        Response.ok("body", *ttls)


class _NanResponse:
    """A cacheable response whose TTL is NaN, as if it got past validation."""

    is_cacheable = True
    body = "body"
    etag = None

    def ttl_for(self, shared: bool) -> float:
        return NAN


def test_store_keeps_nothing_for_a_nan_ttl():
    clock = VirtualClock()
    cache = ExpirationCache("c", clock)
    assert cache.store("k", _NanResponse()) is None
    assert "k" not in cache and cache.stats.stores == 0
    clock.advance(1e9)
    assert cache.lookup("k", clock.now()) is None


def test_restamp_keeps_nothing_for_a_nan_ttl():
    clock = VirtualClock()
    cache = ExpirationCache("c", clock)
    entry = CacheEntry("k", "body", None, 0.0, 1.0)
    cache.restamp([entry], NAN, clock.now())
    assert "k" not in cache and cache.stats.stores == 0
    assert entry.ttl == 1.0  # the NaN never reached the entry
    clock.advance(1e9)
    assert cache.lookup("k", clock.now()) is None


@pytest.mark.parametrize("fields", [{"maximum": NAN}, {"minimum": NAN}])
def test_ttl_bounds_reject_nan(fields):
    with pytest.raises(ValueError):
        TTLBounds(**fields)


def test_valid_bounds_still_clamp_a_nan_estimate_to_the_minimum():
    assert TTLBounds(minimum=2.0, maximum=60.0).clamp(NAN) == 2.0
