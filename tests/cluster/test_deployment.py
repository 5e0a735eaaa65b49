"""Sharded deployment end-to-end: unchanged SDK, batching, metrics, simulation."""

from __future__ import annotations

import pytest

from repro.caching import InvalidationCache
from repro.clock import VirtualClock
from repro.client import QuaestorClient
from repro.cluster import ClusterClient, QuaestorCluster, aggregate_statistics
from repro.cluster.metrics import per_shard_statistics
from repro.db import Query
from repro.errors import UnsupportedOperationError
from repro.workloads.operations import Operation, OperationType


@pytest.fixture
def sharded_deployment():
    """A four-shard fleet with a shared CDN and one connected, unmodified SDK."""
    clock = VirtualClock()
    cluster = QuaestorCluster(num_shards=4, clock=clock, matching_nodes=2)
    facade = ClusterClient(cluster)
    cdn = InvalidationCache("cdn", clock)
    facade.register_purge_target(cdn)
    client = QuaestorClient(facade, cdn=cdn, clock=clock, refresh_interval=10.0)
    client.connect()
    for index in range(40):
        client.insert(
            "posts",
            {
                "_id": f"post-{index}",
                "tags": ["example"] if index % 2 == 0 else ["other"],
                "views": index,
            },
        )
    return {"clock": clock, "cluster": cluster, "facade": facade, "cdn": cdn, "client": client}


class TestUnchangedClientSDK:
    def test_query_caching_and_bounded_staleness_work_end_to_end(self, sharded_deployment):
        clock = sharded_deployment["clock"]
        client = sharded_deployment["client"]
        query = Query("posts", {"tags": "example"})

        first = client.query(query)
        assert first.level == "origin"
        assert len(first.value) == 20

        second = client.query(query)
        assert second.level == "client", "repeat query must be a client cache hit"

        # A write on some shard changes the result; within the staleness bound
        # the client may still serve the old copy, after the EBF refresh it
        # must revalidate and see the new result.
        client.update("posts", "post-1", {"$set": {"tags": ["example", "other"]}})
        clock.advance(11.0)
        fresh = client.query(query)
        assert fresh.revalidated or fresh.level == "origin"
        assert len(fresh.value) == 21

    def test_record_reads_route_and_cache(self, sharded_deployment):
        client = sharded_deployment["client"]
        query = Query("posts", {"tags": "example"})
        client.query(query)  # object-list side effect caches member records
        result = client.read("posts", "post-0")
        assert result.level == "client"
        assert result.value["views"] == 0

    def test_read_your_writes_across_shards(self, sharded_deployment):
        client = sharded_deployment["client"]
        for index in range(8):
            document_id = f"post-{index}"
            client.update("posts", document_id, {"$inc": {"views": 100}})
            result = client.read("posts", document_id)
            assert result.value["views"] == index + 100

    def test_transactions_are_refused_not_miscommitted(self, sharded_deployment):
        with pytest.raises(UnsupportedOperationError):
            sharded_deployment["client"].begin_transaction()


class TestBatchedWritePropagation:
    def test_batch_responses_keep_request_order(self, sharded_deployment):
        facade = sharded_deployment["facade"]
        operations = [
            Operation(
                type=OperationType.UPDATE,
                collection="posts",
                document_id=f"post-{index}",
                payload={"$set": {"views": 1000 + index}},
            )
            for index in range(20)
        ]
        responses = facade.handle_write_batch(operations)
        assert len(responses) == 20
        for index, response in enumerate(responses):
            assert response.body["document"]["views"] == 1000 + index

    def test_batch_applies_on_owning_shards(self, sharded_deployment):
        facade = sharded_deployment["facade"]
        cluster = sharded_deployment["cluster"]
        operations = [
            Operation(
                type=OperationType.INSERT,
                collection="posts",
                document_id=f"batch-{index}",
                payload={"_id": f"batch-{index}", "tags": ["batch"], "views": 0},
            )
            for index in range(16)
        ]
        facade.handle_write_batch(operations)
        for index in range(16):
            shard = cluster.shards[cluster.router.shard_for_record("posts", f"batch-{index}")]
            assert shard.database.collection("posts").get(f"batch-{index}")["views"] == 0

    def test_batch_pumps_invalidations_once_per_shard(self, sharded_deployment):
        facade = sharded_deployment["facade"]
        client = sharded_deployment["client"]
        query = Query("posts", {"tags": "example"})
        client.query(query)

        operations = [
            Operation(
                type=OperationType.UPDATE,
                collection="posts",
                document_id=f"post-{index * 2}",  # members of the cached query
                payload={"$inc": {"views": 1}},
            )
            for index in range(10)
        ]
        facade.handle_write_batch(operations)
        stats = facade.statistics()
        assert stats["write_batches"] >= 1
        # The cached query must still be invalidated by the batched writes.
        assert facade.get_bloom_filter().contains(query.cache_key)

    def test_batched_inserts_route_by_payload_id(self, sharded_deployment):
        # Routing must follow the stored primary key (payload _id), so a
        # batched insert lands on the same shard a direct insert would and
        # later reads find the document.
        facade = sharded_deployment["facade"]
        cluster = sharded_deployment["cluster"]
        operation = Operation(
            type=OperationType.INSERT,
            collection="posts",
            document_id="mismatched-routing-key",
            payload={"_id": "authoritative-id", "tags": [], "views": 0},
        )
        facade.handle_write_batch([operation])
        owner = cluster.shards[cluster.router.shard_for_record("posts", "authoritative-id")]
        assert owner.database.collection("posts").get("authoritative-id")["views"] == 0
        response = facade.handle_read("posts", "authoritative-id")
        assert response.body["document"]["_id"] == "authoritative-id"

    def test_batched_insert_materialises_collection_fleet_wide(self, sharded_deployment):
        # Regression: a batched insert into a brand-new collection must
        # create it on every shard (like a direct insert), or later scatter
        # queries and routed reads hit missing-collection errors.
        facade = sharded_deployment["facade"]
        facade.handle_write_batch(
            [
                Operation(
                    type=OperationType.INSERT,
                    collection="events",
                    document_id="e-1",
                    payload={"_id": "e-1", "kind": "signup"},
                )
            ]
        )
        from repro.db import Query
        from repro.rest.messages import StatusCode

        assert facade.handle_query(Query("events", {})).body["ids"] == ["e-1"]
        missing = facade.handle_read("events", "nope")
        assert missing.status == StatusCode.NOT_FOUND

    def test_batch_rejects_non_write_operations(self, sharded_deployment):
        facade = sharded_deployment["facade"]
        read = Operation(type=OperationType.READ, collection="posts", document_id="post-0")
        with pytest.raises(ValueError):
            facade.handle_write_batch([read])

    def test_rejected_batch_leaves_no_state_behind(self, sharded_deployment):
        # A batch with an invalid member must fail atomically at validation:
        # no counter increment, no fleet-wide collection materialisation.
        from repro.errors import CollectionNotFoundError

        facade = sharded_deployment["facade"]
        cluster = sharded_deployment["cluster"]
        bad_batch = [
            Operation(
                type=OperationType.INSERT,
                collection="phantom",
                document_id="x",
                payload={"_id": "x"},
            ),
            Operation(type=OperationType.READ, collection="posts", document_id="post-0"),
        ]
        with pytest.raises(ValueError):
            facade.handle_write_batch(bad_batch)
        assert all(
            "phantom" not in shard.database.collection_names() for shard in cluster.shards
        )
        assert facade.statistics().get("cluster_write_batches", 0) == 0
        from repro.db import Query

        with pytest.raises(CollectionNotFoundError):
            facade.handle_query(Query("phantom", {}))


class TestClusterMetrics:
    def test_aggregate_sums_per_shard_counters(self, sharded_deployment):
        cluster = sharded_deployment["cluster"]
        per_shard = per_shard_statistics(cluster)
        aggregated = aggregate_statistics(list(per_shard.values()))
        assert aggregated["writes"] == sum(stats.get("writes", 0) for stats in per_shard.values())
        assert aggregated["writes"] == 40  # one insert per seeded document

    def test_statistics_include_fleet_indicators(self, sharded_deployment):
        stats = sharded_deployment["facade"].statistics()
        assert stats["shards"] == 4
        assert stats["routing_imbalance"] >= 1.0
        assert stats["writes"] >= 40

    def test_aggregate_skips_non_numeric_values(self):
        merged = aggregate_statistics([{"a": 1, "b": "text"}, {"a": 2.5, "b": "more"}])
        assert merged == {"a": 3.5}

    def test_facade_counters_do_not_clobber_shard_sums(self, sharded_deployment):
        # Batched writes increment the shards' ``writes`` but only the
        # facade's ``write_batches``; the aggregate must keep both.
        facade = sharded_deployment["facade"]
        before = facade.statistics()["writes"]
        operations = [
            Operation(
                type=OperationType.UPDATE,
                collection="posts",
                document_id=f"post-{index}",
                payload={"$inc": {"views": 1}},
            )
            for index in range(12)
        ]
        facade.handle_write_batch(operations)
        stats = facade.statistics()
        assert stats["writes"] == before + 12  # shard sums survive
        assert stats["cluster_write_batches"] == 1  # facade counters namespaced


class TestShardedSimulation:
    def test_simulation_runs_against_a_sharded_fleet(self):
        from repro.simulation.simulator import CachingMode, SimulationConfig, Simulator
        from repro.workloads.dataset import DatasetSpec
        from repro.workloads.generator import WorkloadSpec

        config = SimulationConfig(
            mode=CachingMode.QUAESTOR,
            workload=WorkloadSpec.with_update_rate(0.1),
            dataset=DatasetSpec(num_tables=2, documents_per_table=200, queries_per_table=20),
            num_clients=4,
            connections_per_client=10,
            max_operations=800,
            duration=60.0,
            matching_nodes=2,
            origin_capacity=500.0,
            num_shards=4,
        )
        result = Simulator(config).run()
        assert result.operations > 0
        assert result.throughput > 0.0
        assert result.server_statistics["shards"] == 4

    def test_single_shard_config_uses_the_classic_server(self):
        from repro.core import QuaestorServer
        from repro.simulation.simulator import SimulationConfig, Simulator
        from repro.workloads.dataset import DatasetSpec

        config = SimulationConfig(
            dataset=DatasetSpec(num_tables=1, documents_per_table=100, queries_per_table=10),
            num_clients=2,
            connections_per_client=5,
            max_operations=100,
        )
        simulator = Simulator(config)
        assert simulator.cluster is None
        assert isinstance(simulator.server, QuaestorServer)

    def test_invalid_shard_count_is_rejected(self):
        from repro.errors import ConfigurationError
        from repro.simulation.simulator import SimulationConfig

        with pytest.raises(ConfigurationError):
            SimulationConfig(num_shards=0)
