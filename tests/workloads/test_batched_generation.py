"""Golden tests for batched workload sampling (the PR 4 overhaul).

``WorkloadGenerator.next_operations`` emits operations in chunks for the
simulator's hot loop.  These tests pin that the chunked sampler is a pure
speed-up: the operation stream is bit-identical to repeated
``next_operation`` calls, and its fingerprint matches the stream the
pre-overhaul generator produced (recorded at commit 2326f94).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.workloads import DatasetSpec, WorkloadGenerator, WorkloadSpec, generate_dataset

#: sha256 over the serialised first 2,000 operations of the spec below, as
#: produced by the pre-overhaul per-operation sampler.
GOLDEN_STREAM_SHA256 = "36bd2a78a55819d53432600ff4575645e88ba242028d6fcf95be1ba69227a7e7"

GOLDEN_SPEC = dict(
    read_proportion=0.46,
    query_proportion=0.46,
    update_proportion=0.05,
    insert_proportion=0.02,
    delete_proportion=0.01,
    seed=11,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(DatasetSpec(num_tables=2, documents_per_table=100, queries_per_table=10))


def serialise(operations) -> list:
    return [
        [
            operation.type.value,
            operation.collection,
            operation.document_id,
            operation.query.cache_key if operation.query else None,
            json.dumps(operation.payload, sort_keys=True, default=str)
            if operation.payload
            else None,
        ]
        for operation in operations
    ]


def fingerprint(operations) -> str:
    payload = json.dumps(serialise(operations), separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


class TestBatchedGeneration:
    def test_golden_stream_fingerprint(self, dataset):
        """The seeded stream (all five operation types) is pinned by hash."""
        generator = WorkloadGenerator(WorkloadSpec(**GOLDEN_SPEC), dataset)
        assert fingerprint(generator.next_operations(2_000)) == GOLDEN_STREAM_SHA256

    def test_batched_equals_one_at_a_time(self, dataset):
        batched = WorkloadGenerator(WorkloadSpec(**GOLDEN_SPEC), dataset)
        single = WorkloadGenerator(WorkloadSpec(**GOLDEN_SPEC), dataset)
        want = serialise(single.next_operations(1)[0] for _ in range(1_500))
        got = serialise(batched.next_operations(1_500))
        assert got == want

    def test_chunk_boundaries_do_not_change_the_stream(self, dataset):
        """Splitting the same draw count into uneven chunks is invisible."""
        one_shot = WorkloadGenerator(WorkloadSpec(**GOLDEN_SPEC), dataset)
        chunked = WorkloadGenerator(WorkloadSpec(**GOLDEN_SPEC), dataset)
        want = serialise(one_shot.next_operations(1_000))
        got = []
        for size in (1, 7, 250, 500, 242):
            got.extend(serialise(chunked.next_operations(size)))
        assert got == want

    def test_zero_and_negative_counts(self, dataset):
        generator = WorkloadGenerator(WorkloadSpec(**GOLDEN_SPEC), dataset)
        assert generator.next_operations(0) == []
        with pytest.raises(ValueError):
            generator.next_operations(-1)
