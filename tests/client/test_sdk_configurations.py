"""Tests for the SDK's baseline configurations and edge behaviour."""

from __future__ import annotations

import pytest

from repro.caching import InvalidationCache
from repro.client import QuaestorClient
from repro.core import QuaestorConfig, QuaestorServer
from repro.db import Query
from repro.invalidb import InvaliDBCluster


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


class TestBaselineConfigurations:
    def test_cdn_only_client_never_uses_client_cache(self, server, cdn, clock, example_query):
        client = QuaestorClient(
            server, cdn=cdn, clock=clock, use_client_cache=False, use_ebf=False
        )
        client.query(example_query)
        result = client.query(example_query)
        assert result.level == "cdn"
        assert len(client.client_cache) == 0

    def test_ebf_only_client_has_no_cdn_level(self, server, clock, example_query):
        client = QuaestorClient(server, cdn=None, clock=clock, refresh_interval=5.0)
        client.connect()
        client.query(example_query)
        assert client.query(example_query).level == "client"
        # Misses go straight to the origin (no CDN level exists).
        other = Query("posts", {"tags": "other"})
        assert client.query(other).level == "origin"

    def test_client_without_ebf_never_downloads_filter(self, server, cdn, clock):
        client = QuaestorClient(server, cdn=cdn, clock=clock, use_ebf=False)
        client.connect()
        assert client._bloom is None
        assert server.counters.get("ebf_downloads") == 0

    def test_bounded_client_cache_evicts(self, server, cdn, clock):
        client = QuaestorClient(
            server, cdn=cdn, clock=clock, client_cache_max_entries=5
        )
        client.connect()
        for index in range(10):
            client.read("posts", f"p{index}")
        assert len(client.client_cache) <= 5
        assert client.client_cache.stats.evictions >= 5


class TestSdkInternals:
    def test_unknown_query_key_in_origin_fetch_rejected(self, server, cdn, clock):
        client = QuaestorClient(server, cdn=cdn, clock=clock)
        with pytest.raises(KeyError):
            client._origin_fetch("query:never-registered")

    def test_origin_fetch_routes_record_keys(self, server, cdn, clock):
        client = QuaestorClient(server, cdn=cdn, clock=clock)
        response = client._origin_fetch("record:posts/p0")
        assert response.body["document"]["_id"] == "p0"

    def test_counters_track_operation_mix(self, server, cdn, clock, example_query):
        client = QuaestorClient(server, cdn=cdn, clock=clock)
        client.connect()
        client.query(example_query)
        client.read("posts", "p0")
        client.update("posts", "p0", {"$inc": {"views": 1}})
        counts = client.counters.as_dict()
        assert counts["queries"] == 1
        assert counts["reads"] == 1
        assert counts["writes"] == 1

    def test_repr_contains_name_and_consistency(self, server, clock):
        client = QuaestorClient(server, clock=clock, name="my-browser")
        assert "my-browser" in repr(client)
