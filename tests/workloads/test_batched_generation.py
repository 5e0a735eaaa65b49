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

#: The same over the uniform-picker variant of the spec (``uniform=True``),
#: recorded at commit 2bc23be, the last one whose ``next_operation`` sampled
#: one operation at a time (type by a linear scan) instead of a batch of one.
GOLDEN_UNIFORM_STREAM_SHA256 = "21350467cfbc5f473c90e517582a9ce8d5b72f1b35338dd7de1dd20d751c74d7"

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

    def test_golden_uniform_stream_fingerprint(self, dataset):
        generator = WorkloadGenerator(WorkloadSpec(**{**GOLDEN_SPEC, "uniform": True}), dataset)
        assert fingerprint(generator.next_operations(2_000)) == GOLDEN_UNIFORM_STREAM_SHA256

    def test_batched_equals_one_at_a_time(self, dataset):
        batched = WorkloadGenerator(WorkloadSpec(**GOLDEN_SPEC), dataset)
        single = WorkloadGenerator(WorkloadSpec(**GOLDEN_SPEC), dataset)
        want = serialise(single.next_operation() for _ in range(1_500))
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

    def test_uniform_spec_batches_identically(self, dataset):
        spec = WorkloadSpec(**{**GOLDEN_SPEC, "uniform": True})
        batched = WorkloadGenerator(spec, dataset)
        single = WorkloadGenerator(spec, dataset)
        want = serialise(single.next_operation() for _ in range(600))
        assert serialise(batched.next_operations(600)) == want

    def test_zero_and_negative_counts(self, dataset):
        generator = WorkloadGenerator(WorkloadSpec(**GOLDEN_SPEC), dataset)
        assert generator.next_operations(0) == []
        with pytest.raises(ValueError):
            generator.next_operations(-1)

    def test_operations_and_stream_agree_with_the_batched_path(self, dataset):
        reference = WorkloadGenerator(WorkloadSpec(**GOLDEN_SPEC), dataset)
        want = serialise(reference.next_operations(700))
        via_operations = WorkloadGenerator(WorkloadSpec(**GOLDEN_SPEC), dataset)
        assert serialise(via_operations.operations(700)) == want
        via_stream = WorkloadGenerator(WorkloadSpec(**GOLDEN_SPEC), dataset)
        assert serialise(via_stream.stream(700)) == want

    def test_abandoned_stream_leaves_rng_where_consumed_ops_put_it(self, dataset):
        """stream() must stay lazy: breaking out early must not have sampled
        ahead, so the next operation continues the seeded sequence."""
        reference = WorkloadGenerator(WorkloadSpec(**GOLDEN_SPEC), dataset)
        want = serialise(reference.next_operations(11))
        abandoned = WorkloadGenerator(WorkloadSpec(**GOLDEN_SPEC), dataset)
        consumed = []
        for index, operation in enumerate(abandoned.stream(700)):
            consumed.append(operation)
            if index == 9:
                break
        consumed.append(abandoned.next_operation())
        assert serialise(consumed) == want
