"""Sharded deployment end-to-end: unchanged SDK, routed writes, metrics, simulation."""

from __future__ import annotations

import pytest

from repro.caching import InvalidationCache
from repro.clock import VirtualClock
from repro.client import QuaestorClient
from repro.cluster import ClusterClient, QuaestorCluster, aggregate_statistics
from repro.cluster.metrics import per_shard_statistics
from repro.db import Query
from repro.db.query import record_key
from repro.errors import UnsupportedOperationError
from repro.replication import ReplicationConfig
from repro.rest.messages import StatusCode


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


class TestRoutedWrites:
    @pytest.mark.parametrize("op", ["insert", "update", "delete"])
    def test_a_write_applies_on_its_owning_shard_only(self, sharded_deployment, op):
        """The ring owner of the record key -- an insert's payload ``_id`` --
        counts and applies the write; no other shard sees it."""
        facade = sharded_deployment["facade"]
        cluster = sharded_deployment["cluster"]
        document_id = "post-new" if op == "insert" else "post-3"
        owner = cluster.router.ring.shard_for(record_key("posts", document_id))
        before = per_shard_statistics(cluster)
        if op == "insert":
            response = facade.handle_insert("posts", {"_id": document_id, "views": 7})
        elif op == "update":
            response = facade.handle_update("posts", document_id, {"$set": {"views": 7}})
        else:
            response = facade.handle_delete("posts", document_id)
        assert response.status is (StatusCode.CREATED if op == "insert" else StatusCode.OK)
        after = per_shard_statistics(cluster)
        for group in cluster.groups:
            shard_id = group.shard_id
            assert after[shard_id]["writes"] - before[shard_id]["writes"] == (shard_id == owner)
            stored = group.database.collection("posts")
            present = document_id in stored
            assert present == (shard_id == owner and op != "delete"), shard_id
            if present:
                assert stored.get(document_id)["views"] == 7

    @pytest.mark.parametrize("replication_factor", [1, 3])
    def test_an_insert_materialises_its_collection_on_every_node(self, replication_factor):
        """Every primary and replica holds the new collection, so a scatter
        query and a read on any shard answer instead of failing."""
        cluster = QuaestorCluster(
            num_shards=3,
            clock=VirtualClock(),
            replication=ReplicationConfig(replication_factor=replication_factor),
        )
        facade = ClusterClient(cluster)
        facade.handle_insert("events", {"_id": "e-1", "kind": "signup"})
        for group in cluster.groups:
            assert len(group.nodes) == replication_factor
            for node in group.nodes:
                assert "events" in node.database.collection_names(), node.node_id
        assert facade.handle_query(Query("events", {})).body["ids"] == ["e-1"]
        assert facade.handle_read("events", "nope").status is StatusCode.NOT_FOUND


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
        # A routed write increments both the facade's and its shard's
        # ``writes``; the aggregate must keep both.
        facade = sharded_deployment["facade"]
        before = facade.statistics()
        for index in range(12):
            facade.handle_update("posts", f"post-{index}", {"$inc": {"views": 1}})
        stats = facade.statistics()
        assert stats["writes"] == before["writes"] + 12  # shard sums survive
        assert stats["cluster_writes"] == before["cluster_writes"] + 12  # namespaced


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
