"""Workload substream splitting for the process-parallel simulator.

``split_workload_spec`` / ``split_workload_phases`` plus
``Dataset.partition`` derive independent per-partition substreams from one
master seed, exactly as ``ParallelSimulator`` builds its partitions.  The substream
seed mapping and the resulting operation streams are pinned by hash: they
are part of the reproducibility contract of every partitioned experiment.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.errors import ConfigurationError
from repro.workloads import (
    DatasetSpec,
    PhasedWorkloadGenerator,
    WorkloadGenerator,
    WorkloadSpec,
    derive_substream_seed,
    generate_dataset,
    partition_share,
    split_workload_phases,
    split_workload_spec,
)

#: Pinned substream seeds -- the blake2b derivation must never change.
PINNED_SEEDS = {
    (11, "workload", 0, 2): 13980248284687342998,
    (11, "workload", 1, 2): 15845009434290678738,
    (42, "partition", 0, 2): 11951173877191880741,
    (42, "partition", 1, 2): 9589029186514247943,
    (11, "workload-phase", 0, 0, 2): 16415868372923283229,
}

#: sha256 of each substream's first 500 operations for the spec below.
GOLDEN_SUBSTREAMS = (
    "7cf04fb468547543e0533b68c90aefae4ada37dea3d124e45576756a72805870",
    "d48ce0e9df2b6a1b7dc662ff24464c937d9ca7aa8ec7228c5cd0e52d3f4adc63",
)

SPEC = dict(
    read_proportion=0.46,
    query_proportion=0.46,
    update_proportion=0.05,
    insert_proportion=0.02,
    delete_proportion=0.01,
    seed=11,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        DatasetSpec(num_tables=4, documents_per_table=100, queries_per_table=10)
    )


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


class TestSubstreamSeeds:
    def test_derivation_is_pinned(self):
        for args, expected in PINNED_SEEDS.items():
            assert derive_substream_seed(*args) == expected

    def test_paths_and_seeds_disambiguate(self):
        seen = {
            derive_substream_seed(seed, tag, index, 4)
            for seed in (1, 2, 11)
            for tag in ("workload", "partition")
            for index in range(4)
        }
        assert len(seen) == 24  # no collisions across seeds, tags, indexes

    def test_split_spec_only_moves_the_seed(self):
        spec = WorkloadSpec(**SPEC)
        sub = split_workload_spec(spec, 1, 2)
        assert sub.seed == PINNED_SEEDS[(11, "workload", 1, 2)]
        assert {**sub.__dict__, "seed": spec.seed} == spec.__dict__


class TestPartitionShare:
    def test_shares_sum_to_total(self):
        for total in (0, 1, 7, 100, 801):
            for partitions in (1, 2, 3, 8):
                shares = [partition_share(total, p, partitions) for p in range(partitions)]
                assert sum(shares) == total
                # Remainder goes to the lowest ids: shares are non-increasing
                # and differ by at most one.
                assert shares == sorted(shares, reverse=True)
                assert max(shares) - min(shares) <= 1

    def test_bounds_are_validated(self):
        with pytest.raises(ConfigurationError):
            partition_share(10, 0, 0)
        with pytest.raises(ConfigurationError):
            partition_share(10, 2, 2)


def substreams(spec, dataset, partitions):
    """One generator per partition, built the way the partitioned engine does."""
    return [
        WorkloadGenerator(
            split_workload_spec(spec, partition_id, partitions),
            dataset.partition(partition_id, partitions),
        )
        for partition_id in range(partitions)
    ]


class TestGeneratorSplit:
    def test_substreams_are_pinned(self, dataset):
        fingerprints = tuple(
            fingerprint(sub.next_operations(500))
            for sub in substreams(WorkloadSpec(**SPEC), dataset, 2)
        )
        assert fingerprints == GOLDEN_SUBSTREAMS

    def test_substreams_stay_inside_their_table_slice(self, dataset):
        for partition_id, sub in enumerate(substreams(WorkloadSpec(**SPEC), dataset, 2)):
            allowed = set(sub.dataset.tables)
            assert allowed == {
                table
                for index, table in enumerate(dataset.tables)
                if index % 2 == partition_id
            }
            assert all(
                operation.collection in allowed for operation in sub.next_operations(300)
            )


class TestPhasedSplit:
    def phases(self):
        return (
            (100, WorkloadSpec.read_heavy(seed=11)),
            (60, WorkloadSpec.with_update_rate(0.2, seed=11)),
        )

    def test_budgets_split_near_evenly(self):
        split = split_workload_phases(self.phases(), 0, 3)
        assert [operations for operations, _spec in split] == [34, 20]
        split = split_workload_phases(self.phases(), 2, 3)
        assert [operations for operations, _spec in split] == [33, 20]

    def test_phase_seeds_are_independent_per_partition_and_phase(self):
        seeds = {
            spec.seed
            for partition_id in range(2)
            for _operations, spec in split_workload_phases(self.phases(), partition_id, 2)
        }
        assert len(seeds) == 4

    def test_budget_smaller_than_partitions_is_rejected(self):
        with pytest.raises(ConfigurationError):
            split_workload_phases(((1, WorkloadSpec.read_heavy()),), 0, 2)

    def test_phased_generator_split_crosses_boundaries_consistently(self, dataset):
        for partition_id in range(2):
            sub = PhasedWorkloadGenerator(
                split_workload_phases(self.phases(), partition_id, 2),
                dataset.partition(partition_id, 2),
            )
            budget = sub.phases[0][0]
            for _ in range(budget):
                sub.next_operations(1)
            assert sub.phase_index == 0  # boundary crossed lazily
            sub.next_operations(1)
            assert sub.phase_index == 1


class TestDatasetPartition:
    def test_slices_cover_and_do_not_overlap(self, dataset):
        slices = [dataset.partition(p, 2) for p in range(2)]
        tables = [table for part in slices for table in part.tables]
        assert sorted(tables) == sorted(dataset.tables)
        assert len(set(tables)) == len(tables)
        for part in slices:
            assert part.spec.num_tables == len(part.tables)
            for table in part.tables:
                assert part.documents[table] is dataset.documents[table]

    def test_every_partition_needs_a_table(self, dataset):
        with pytest.raises(ValueError):
            dataset.partition(0, len(dataset.tables) + 1)
        with pytest.raises(ValueError):
            dataset.partition(2, 2)
