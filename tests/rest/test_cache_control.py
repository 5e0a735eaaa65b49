"""Tests for Cache-Control construction and TTL selection."""

from __future__ import annotations

import pytest

from repro.rest import CacheControl
from repro.rest.cache_control import UNCACHEABLE


class TestConstruction:
    def test_cacheable_defaults_shared_ttl_to_ttl(self):
        directives = CacheControl.cacheable(30.0)
        assert directives.max_age == 30.0
        assert directives.s_maxage == 30.0

    def test_cacheable_with_separate_shared_ttl(self):
        directives = CacheControl.cacheable(30.0, shared_ttl=90.0)
        assert directives.ttl_for(shared=False) == 30.0
        assert directives.ttl_for(shared=True) == 90.0

    def test_uncacheable(self):
        directives = UNCACHEABLE
        assert not directives.is_cacheable
        assert directives.ttl_for(shared=True) == 0.0

    def test_negative_ages_rejected(self):
        with pytest.raises(ValueError):
            CacheControl(max_age=-1)
        with pytest.raises(ValueError):
            CacheControl(s_maxage=-1)


class TestTtlSelection:
    def test_shared_cache_prefers_s_maxage(self):
        directives = CacheControl(max_age=10, s_maxage=60)
        assert directives.ttl_for(shared=True) == 60
        assert directives.ttl_for(shared=False) == 10

    def test_shared_cache_falls_back_to_max_age(self):
        directives = CacheControl(max_age=10)
        assert directives.ttl_for(shared=True) == 10

    def test_no_directives_means_zero_ttl(self):
        assert CacheControl().ttl_for(shared=False) == 0.0
