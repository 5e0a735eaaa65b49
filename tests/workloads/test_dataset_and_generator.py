"""Tests for dataset generation and the YCSB-style operation stream."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.db import Database
from repro.errors import ConfigurationError
from repro.workloads import (
    DatasetSpec,
    Operation,
    OperationType,
    WorkloadGenerator,
    WorkloadSpec,
    generate_dataset,
)


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(DatasetSpec(num_tables=2, documents_per_table=300, queries_per_table=20))


class TestDatasetGeneration:
    def test_shape_matches_spec(self, small_dataset):
        assert len(small_dataset.tables) == 2
        assert sum(len(documents) for documents in small_dataset.documents.values()) == 600
        assert sum(len(queries) for queries in small_dataset.queries.values()) == 40

    def test_documents_have_required_fields(self, small_dataset):
        document = small_dataset.documents[small_dataset.tables[0]][0]
        assert {"_id", "title", "category", "tags", "views", "author", "body"} <= set(document)

    def test_queries_return_expected_average_result_size(self, small_dataset):
        database = Database()
        small_dataset.load_into(database)
        sizes = [len(database.find(query)) for query in small_dataset.all_queries()]
        average = sum(sizes) / len(sizes)
        assert 5 <= average <= 15  # spec targets ~10 documents per query

    def test_generation_is_deterministic(self):
        spec = DatasetSpec(num_tables=1, documents_per_table=50, queries_per_table=5, seed=3)
        assert generate_dataset(spec).documents == generate_dataset(spec).documents

    def test_load_into_creates_indexes(self, small_dataset):
        database = Database()
        small_dataset.load_into(database)
        assert "category" in database.collection(small_dataset.tables[0]).indexed_fields()

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            DatasetSpec(num_tables=0)
        with pytest.raises(ValueError):
            DatasetSpec(average_result_size=0)


    @pytest.mark.parametrize(
        "field", ["num_tables", "documents_per_table", "queries_per_table", "average_result_size"]
    )
    def test_each_shape_field_must_be_positive(self, field):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            DatasetSpec(**{field: -1})

class TestWorkloadSpec:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(read_proportion=0.5, query_proportion=0.5, update_proportion=0.5)

    def test_read_heavy_profile(self):
        spec = WorkloadSpec.read_heavy()
        assert spec.update_proportion == pytest.approx(0.01)
        assert spec.read_proportion + spec.query_proportion == pytest.approx(0.99)

    def test_with_update_rate(self):
        spec = WorkloadSpec.with_update_rate(0.2)
        assert spec.update_proportion == pytest.approx(0.2)
        assert spec.read_proportion == pytest.approx(0.4)
        with pytest.raises(ConfigurationError):
            WorkloadSpec.with_update_rate(1.5)

    def test_negative_proportions_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(read_proportion=-0.1, query_proportion=1.1, update_proportion=0.0)


    @pytest.mark.parametrize(
        "field",
        ["read_proportion", "query_proportion", "update_proportion",
         "insert_proportion", "delete_proportion"],
    )
    def test_each_negative_proportion_is_named(self, field):
        # The shares still sum to 1: only the sign is wrong.
        shares = dict.fromkeys(
            ["read_proportion", "query_proportion", "update_proportion",
             "insert_proportion", "delete_proportion"], 0.0
        )
        other = "read_proportion" if field != "read_proportion" else "query_proportion"
        shares[field] = -0.25
        shares[other] = 1.25
        with pytest.raises(ConfigurationError, match=f"{field} must be non-negative"):
            WorkloadSpec(**shares)

    @pytest.mark.parametrize("update_rate", [-0.01, 1.0])
    def test_update_rate_outside_the_half_open_unit_interval_is_rejected(self, update_rate):
        with pytest.raises(ConfigurationError, match="update_rate"):
            WorkloadSpec.with_update_rate(update_rate)

class TestWorkloadGenerator:
    def test_operation_mix_matches_proportions(self, small_dataset):
        spec = WorkloadSpec(
            read_proportion=0.6, query_proportion=0.3, update_proportion=0.1, seed=1
        )
        generator = WorkloadGenerator(spec, small_dataset)
        counts = Counter(operation.type for operation in generator.next_operations(5_000))
        assert counts[OperationType.READ] / 5_000 == pytest.approx(0.6, abs=0.05)
        assert counts[OperationType.QUERY] / 5_000 == pytest.approx(0.3, abs=0.05)
        assert counts[OperationType.UPDATE] / 5_000 == pytest.approx(0.1, abs=0.03)

    def test_operations_are_well_formed(self, small_dataset):
        generator = WorkloadGenerator(WorkloadSpec.read_heavy(), small_dataset)
        for operation in generator.next_operations(500):
            if operation.type == OperationType.QUERY:
                assert operation.query is not None
            else:
                assert operation.document_id is not None
            if operation.type in (OperationType.INSERT, OperationType.UPDATE):
                assert operation.payload is not None

    def test_insert_operations_have_unique_ids(self, small_dataset):
        spec = WorkloadSpec(
            read_proportion=0.0, query_proportion=0.0, update_proportion=0.0,
            insert_proportion=1.0, seed=5,
        )
        generator = WorkloadGenerator(spec, small_dataset)
        ids = [operation.document_id for operation in generator.next_operations(100)]
        assert len(set(ids)) == 100

    def test_updates_touch_category_sometimes(self, small_dataset):
        spec = WorkloadSpec(
            read_proportion=0.0, query_proportion=0.0, update_proportion=1.0, seed=2
        )
        generator = WorkloadGenerator(spec, small_dataset)
        payload_keys = [next(iter(op.payload)) for op in generator.next_operations(500)]
        assert "$set" in payload_keys and "$inc" in payload_keys

    def test_zipfian_targets_are_skewed(self, small_dataset):
        spec = WorkloadSpec(
            read_proportion=1.0, query_proportion=0.0, update_proportion=0.0,
            zipf_constant=0.99, seed=3,
        )
        generator = WorkloadGenerator(spec, small_dataset)
        counts = Counter(operation.document_id for operation in generator.next_operations(5_000))
        top_share = sum(count for _key, count in counts.most_common(30)) / 5_000
        assert top_share > 0.2

    def test_deterministic_given_seed(self, small_dataset):
        spec = WorkloadSpec.read_heavy(seed=9)
        first = WorkloadGenerator(spec, small_dataset).next_operations(100)
        second = WorkloadGenerator(spec, small_dataset).next_operations(100)
        assert [op.type for op in first] == [op.type for op in second]

    def test_negative_count_rejected(self, small_dataset):
        generator = WorkloadGenerator(WorkloadSpec.read_heavy(), small_dataset)
        with pytest.raises(ValueError):
            generator.next_operations(-1)


class TestOperationValidation:
    def test_query_operation_requires_query(self):
        with pytest.raises(ValueError):
            Operation(OperationType.QUERY, "posts")

    def test_record_operation_requires_id(self):
        with pytest.raises(ValueError):
            Operation(OperationType.READ, "posts")

    def test_update_requires_payload(self):
        with pytest.raises(ValueError):
            Operation(OperationType.UPDATE, "posts", document_id="p1")

    def test_insert_requires_payload(self):
        with pytest.raises(ValueError, match="insert operations require a payload"):
            Operation(OperationType.INSERT, "posts", document_id="p1")

    def test_delete_needs_only_an_id(self):
        operation = Operation(OperationType.DELETE, "posts", document_id="p1")
        assert operation.document_id == "p1" and operation.payload is None
        with pytest.raises(ValueError, match="delete operations require a document_id"):
            Operation(OperationType.DELETE, "posts")
