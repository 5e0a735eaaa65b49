"""End-to-end integration tests of the full caching pipeline (paper Section 5)."""

from __future__ import annotations

import pytest

from repro.caching import InvalidationCache
from repro.client import QuaestorClient
from repro.core import ConsistencyLevel, QuaestorConfig, QuaestorServer
from repro.db import Database, Query
from repro.invalidb import InvaliDBCluster


class TestSection5EndToEndExample:
    """Reproduces the four numbered steps of Figure 7 in the paper."""

    @pytest.fixture
    def world(self, clock):
        database = Database(clock=clock)
        posts = database.create_collection("posts")
        posts.create_index("tags")
        for index in range(12):
            posts.insert(
                {"_id": f"p{index}", "tags": ["example"] if index < 6 else ["other"], "views": index}
            )
        server = QuaestorServer(
            database, config=QuaestorConfig(), invalidb=InvaliDBCluster(matching_nodes=4)
        )
        cdn = InvalidationCache("cdn", clock)
        server.register_purge_target(cdn)
        client = QuaestorClient(server, cdn=cdn, clock=clock, refresh_interval=5.0)
        q1 = Query("posts", {"tags": "example"})
        q2 = Query("posts", {"tags": "other"})
        return locals()

    def test_full_lifecycle(self, world, clock):
        client, server, cdn = world["client"], world["server"], world["cdn"]
        q1, q2 = world["q1"], world["q2"]

        # Step 1: the client connects and retrieves the Bloom filter; q2 was
        # previously cached and invalidated, so it is contained.
        server.handle_query(q2)
        server.handle_update("posts", "p7", {"$set": {"tags": ["other", "new"]}})
        client.connect()
        assert client._bloom.contains(q2.cache_key)

        # Step 2: loading q2 triggers a revalidation that refreshes all caches.
        result_q2 = client.query(q2)
        assert result_q2.level == "origin"
        assert client.query(q2).level == "client"  # now fresh locally

        # Step 3: a query not in the Bloom filter (q1) is served by caches.
        client.query(q1)
        assert client.query(q1).level == "client"

        # Step 4: an update changes q1's result; InvaliDB detects the match,
        # the EBF is updated and the CDN purged.
        server.handle_update("posts", "p7", {"$set": {"tags": ["example"]}})
        assert server.ebf.contains(q1.cache_key)
        assert q1.cache_key not in cdn
        fresh_filter = server.get_bloom_filter()
        assert fresh_filter.contains(q1.cache_key)

        # After the client's refresh interval, it revalidates and sees 7 posts.
        clock.advance(6.0)
        refreshed = client.query(q1)
        assert len(refreshed.value) == 7


class TestMultiClientConsistency:
    @pytest.fixture
    def world(self, clock):
        database = Database(clock=clock)
        articles = database.create_collection("articles")
        articles.create_index("section")
        for index in range(30):
            articles.insert(
                {"_id": f"a{index}", "section": "news" if index % 2 == 0 else "sports",
                 "headline": f"Article {index}", "clicks": index}
            )
        server = QuaestorServer(
            database, config=QuaestorConfig(), invalidb=InvaliDBCluster(matching_nodes=4)
        )
        cdn = InvalidationCache("cdn", clock)
        server.register_purge_target(cdn)
        writers = QuaestorClient(server, cdn=cdn, clock=clock, refresh_interval=2.0, name="writer")
        readers = [
            QuaestorClient(server, cdn=cdn, clock=clock, refresh_interval=2.0, name=f"reader-{i}")
            for i in range(3)
        ]
        for participant in [writers, *readers]:
            participant.connect()
        return locals()

    def test_cdn_shared_between_clients(self, world):
        readers = world["readers"]
        query = Query("articles", {"section": "news"})
        assert readers[0].query(query).level == "origin"
        assert readers[1].query(query).level == "cdn"
        assert readers[2].query(query).level == "cdn"

    def test_staleness_is_bounded_for_all_clients(self, world, clock):
        readers, writer, server = world["readers"], world["writers"], world["server"]
        query = Query("articles", {"section": "news"})
        for reader in readers:
            reader.query(query)
        # The writer moves an article into the news section.
        writer.update("articles", "a1", {"$set": {"section": "news"}})
        # Within Delta, readers may still see the old result from their caches.
        early_sizes = {len(reader.query(query).value) for reader in readers}
        assert early_sizes <= {15, 16}
        # After Delta, every reader must observe the new result.
        clock.advance(3.0)
        late_sizes = {len(reader.query(query).value) for reader in readers}
        assert late_sizes == {16}

    def test_strong_reads_are_never_stale(self, world):
        readers, writer = world["readers"], world["writers"]
        query = Query("articles", {"section": "sports"})
        readers[0].query(query)
        writer.update("articles", "a0", {"$set": {"section": "sports"}})
        strong = readers[0].query(query, consistency=ConsistencyLevel.STRONG)
        assert len(strong.value) == 16

    def test_read_your_writes_across_cached_reads(self, world):
        writer = world["writers"]
        writer.read("articles", "a2")
        writer.update("articles", "a2", {"$set": {"headline": "UPDATED"}})
        assert writer.read("articles", "a2").value["headline"] == "UPDATED"

    def test_server_statistics_reflect_activity(self, world):
        server, readers = world["server"], world["readers"]
        query = Query("articles", {"section": "news"})
        for reader in readers:
            reader.query(query)
        stats = server.statistics()
        assert stats["active_queries"] >= 1
        assert stats["invalidb_active_queries"] >= 1


class TestCacheHitRateBuildUp:
    def test_read_heavy_workload_reaches_high_hit_rates(self, clock):
        """Integration: a Zipfian read-heavy loop ends up mostly cache-served."""
        from repro.workloads import DatasetSpec, WorkloadGenerator, WorkloadSpec, generate_dataset

        database = Database(clock=clock)
        dataset = generate_dataset(DatasetSpec(num_tables=2, documents_per_table=400, queries_per_table=30))
        dataset.load_into(database)
        server = QuaestorServer(
            database, config=QuaestorConfig(), invalidb=InvaliDBCluster(matching_nodes=2)
        )
        cdn = InvalidationCache("cdn", clock)
        server.register_purge_target(cdn)
        client = QuaestorClient(server, cdn=cdn, clock=clock, refresh_interval=1.0)
        client.connect()

        generator = WorkloadGenerator(WorkloadSpec.read_heavy(), dataset)
        hits = 0
        total = 0
        for operation in generator.next_operations(1_500):
            clock.advance(0.01)
            if operation.type.value == "query":
                result = client.query(operation.query)
            elif operation.type.value == "read":
                result = client.read(operation.collection, operation.document_id)
            else:
                client.update(operation.collection, operation.document_id, operation.payload)
                continue
            total += 1
            if result.level in ("client", "cdn", "session"):
                hits += 1
        assert total > 0
        assert hits / total > 0.6
