"""Tests for the InvaliDB cluster: distributed matching, capacity model."""

from __future__ import annotations

import pytest

from repro.db.changestream import ChangeEvent, OperationType
from repro.db.query import Query
from repro.errors import ConfigurationError
from repro.invalidb import (
    InvaliDBCluster,
    NodeCapacityModel,
    NotificationType,
)


def make_event(sequence: int, document_id: str, after: dict | None, before: dict | None = None):
    return ChangeEvent(
        sequence=sequence,
        operation=OperationType.UPDATE if after is not None else OperationType.DELETE,
        collection="posts",
        document_id=document_id,
        before=before,
        after=after,
        timestamp=float(sequence),
    )


class TestDistributedMatching:
    def test_cluster_produces_same_notifications_as_single_node(self):
        """Partitioning must not change the notification semantics."""
        queries = [Query("posts", {"category": value}) for value in range(5)]
        events = [
            make_event(index, f"d{index % 7}", {"_id": f"d{index % 7}", "category": index % 5})
            for index in range(1, 40)
        ]

        def run(cluster: InvaliDBCluster):
            for query in queries:
                cluster.register_query(query, [])
            collected = []
            for event in events:
                collected.extend(
                    (n.query_key, n.type, n.document_id) for n in cluster.process_event(event)
                )
            return sorted(collected)

        single = run(InvaliDBCluster(matching_nodes=1))
        distributed = run(InvaliDBCluster(matching_nodes=9))
        assert single == distributed
        assert single  # the scenario actually produces notifications

    def test_notifications_fan_out_to_subscribers(self):
        cluster = InvaliDBCluster(matching_nodes=2)
        cluster.register_query(Query("posts", {"category": 1}), [])
        received = []
        cluster.subscribe(received.append)
        cluster.process_event(make_event(1, "d1", {"_id": "d1", "category": 1}))
        assert len(received) == 1
        assert received[0].type is NotificationType.ADD

    def test_unsubscribe(self):
        cluster = InvaliDBCluster()
        cluster.register_query(Query("posts", {"category": 1}), [])
        received = []
        unsubscribe = cluster.subscribe(received.append)
        unsubscribe()
        cluster.process_event(make_event(1, "d1", {"_id": "d1", "category": 1}))
        assert received == []

    def test_reregistration_resets_state(self):
        cluster = InvaliDBCluster()
        query = Query("posts", {"category": 1})
        cluster.register_query(query, [{"_id": "d1", "category": 1}])
        # Re-register with an empty initial result: the next matching update
        # is an add again, not a change.
        cluster.register_query(query, [])
        notifications = cluster.process_event(make_event(1, "d1", {"_id": "d1", "category": 1}))
        assert [n.type for n in notifications] == [NotificationType.ADD]

    def test_stateful_queries_handled_by_order_layer(self):
        cluster = InvaliDBCluster(matching_nodes=4)
        query = Query("posts", {"category": 1}, sort=[("views", -1)], limit=1)
        cluster.register_query(
            query, [{"_id": "a", "category": 1, "views": 5}, {"_id": "b", "category": 1, "views": 3}]
        )
        notifications = cluster.process_event(
            make_event(1, "b", {"_id": "b", "category": 1, "views": 50})
        )
        types = {n.type for n in notifications}
        assert NotificationType.ADD in types  # 'b' enters the top-1 window
        assert NotificationType.REMOVE in types  # 'a' leaves it

    def test_initial_result_outside_object_partition_is_filtered(self):
        """Each node only keeps the members of its own object partition."""
        cluster = InvaliDBCluster(matching_nodes=4)  # 2 query x 2 object partitions
        query = Query("posts", {"category": 1})
        initial = [{"_id": f"d{index}", "category": 1} for index in range(20)]
        cluster.register_query(query, initial)
        per_node_members = [
            len(node._index._states[query.cache_key]._matching_ids)
            for node in cluster.nodes
            if query.cache_key in node._index._states
        ]
        assert len(per_node_members) == cluster.scheme.object_partitions == 2
        assert sum(per_node_members) == 20
        assert max(per_node_members) < 20


class TestGridFromNodeCount:
    @pytest.mark.parametrize("matching_nodes", [1, 2, 3, 4, 6, 9])
    def test_one_node_per_grid_cell(self, matching_nodes):
        cluster = InvaliDBCluster(matching_nodes=matching_nodes)
        scheme = cluster.scheme
        assert scheme.query_partitions * scheme.object_partitions == matching_nodes
        cells = {(node.query_partition, node.object_partition) for node in cluster.nodes}
        assert len(cluster.nodes) == len(cells) == matching_nodes
        assert sorted(node.node_index for node in cluster.nodes) == list(range(matching_nodes))
        # Every node prices its work with the cluster's one capacity model.
        assert all(node.capacity_model is cluster.capacity_model for node in cluster.nodes)

    @pytest.mark.parametrize("matching_nodes", [0, -1])
    def test_a_non_positive_node_count_is_refused(self, matching_nodes):
        with pytest.raises(ConfigurationError, match="matching_nodes"):
            InvaliDBCluster(matching_nodes=matching_nodes)


class TestCapacityModel:
    def test_sustainable_ops_monotone_in_bound(self):
        model = NodeCapacityModel()
        assert model.sustainable_ops(0.015) < model.sustainable_ops(0.025)
        assert model.sustainable_ops(0.005) == 0.0

    def test_cluster_throughput_scales_linearly(self):
        small = InvaliDBCluster(matching_nodes=2)
        large = InvaliDBCluster(matching_nodes=8)
        bound = 0.020
        assert large.sustainable_throughput(bound) == pytest.approx(
            4 * small.sustainable_throughput(bound)
        )

    def test_match_operation_counters(self):
        cluster = InvaliDBCluster(matching_nodes=1)
        for value in range(3):
            cluster.register_query(Query("posts", {"category": value}), [])
        cluster.process_event(make_event(1, "d1", {"_id": "d1", "category": 0}))
        assert cluster.nodes[0].match_operations == 3
