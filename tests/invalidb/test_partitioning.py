"""Tests for the query x object partitioning scheme."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.invalidb import PartitioningScheme


class TestGeometry:
    def test_for_nodes_prefers_square_grids(self):
        scheme = PartitioningScheme.for_nodes(4)
        assert {scheme.query_partitions, scheme.object_partitions} == {2}

    def test_for_nodes_of_prime_counts(self):
        scheme = PartitioningScheme.for_nodes(7)
        assert scheme.query_partitions * scheme.object_partitions == 7
        assert 1 in (scheme.query_partitions, scheme.object_partitions)

    def test_for_nodes_sixteen(self):
        scheme = PartitioningScheme.for_nodes(16)
        assert scheme.query_partitions == scheme.object_partitions == 4

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitioningScheme(0, 1)
        with pytest.raises(ConfigurationError):
            PartitioningScheme.for_nodes(0)


class TestPlacement:
    def test_query_partition_deterministic_and_in_range(self):
        scheme = PartitioningScheme(3, 2)
        for index in range(50):
            partition = scheme.query_partition(f"query:{index}")
            assert 0 <= partition < 3
            assert partition == scheme.query_partition(f"query:{index}")

    def test_object_partition_in_range(self):
        scheme = PartitioningScheme(3, 2)
        for index in range(50):
            assert 0 <= scheme.object_partition(f"doc-{index}") < 2

    def test_node_index_layout(self):
        scheme = PartitioningScheme(2, 3)
        indexes = {
            scheme.node_index(qp, op) for qp in range(2) for op in range(3)
        }
        assert indexes == set(range(6))

    def test_node_index_bounds_checked(self):
        scheme = PartitioningScheme(2, 2)
        with pytest.raises(ConfigurationError):
            scheme.node_index(2, 0)
        with pytest.raises(ConfigurationError):
            scheme.node_index(0, 2)


class TestRouting:
    def test_query_routed_to_one_node_per_object_partition(self):
        scheme = PartitioningScheme(3, 4)
        nodes = scheme.nodes_for_query("query:abc")
        assert len(nodes) == 4
        assert len(set(nodes)) == 4

    def test_query_and_document_paths_intersect_exactly_once(self):
        """Every (query, record) pair is evaluated by exactly one node."""
        scheme = PartitioningScheme(3, 4)
        for query_index in range(10):
            for document_index in range(10):
                query_nodes = set(scheme.nodes_for_query(f"query:{query_index}"))
                object_partition = scheme.object_partition(f"doc-{document_index}")
                document_nodes = {
                    scheme.node_index(query_partition, object_partition)
                    for query_partition in range(scheme.query_partitions)
                }
                assert len(query_nodes & document_nodes) == 1

    def test_member_filter_partitions_documents(self):
        scheme = PartitioningScheme(2, 3)
        filters = [scheme.member_filter(op) for op in range(3)]
        for index in range(100):
            document_id = f"doc-{index}"
            responsible = [f(document_id) for f in filters]
            assert sum(responsible) == 1

    def test_load_spreads_over_partitions(self):
        scheme = PartitioningScheme(4, 4)
        partitions = {scheme.query_partition(f"query:{index}") for index in range(200)}
        assert partitions == {0, 1, 2, 3}
