"""Tests for the Zipfian request distribution."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.bloom.hashing import stable_uint64
from repro.workloads import ZipfianGenerator


class TestZipfianGenerator:
    def test_indexes_in_range(self):
        generator = ZipfianGenerator(1000, constant=0.99, rng=random.Random(2))
        assert all(0 <= generator.next_indexes(1)[0] < 1000 for _ in range(2000))

    def test_skew_concentrates_mass_on_few_items(self):
        generator = ZipfianGenerator(1000, constant=0.99, rng=random.Random(3))
        counts = Counter(generator.next_indexes(1)[0] for _ in range(20_000))
        top_10_share = sum(count for _item, count in counts.most_common(10)) / 20_000
        assert top_10_share > 0.25

    def test_higher_constant_is_more_skewed(self):
        def top_share(constant: float) -> float:
            generator = ZipfianGenerator(1000, constant=constant, rng=random.Random(4))
            counts = Counter(generator.next_indexes(1)[0] for _ in range(20_000))
            return sum(count for _item, count in counts.most_common(10)) / 20_000

        assert top_share(0.99) > top_share(0.5)

    def test_scrambling_spreads_popular_items(self):
        generator = ZipfianGenerator(1000, constant=0.99, rng=random.Random(6))
        counts = Counter(generator.next_indexes(1)[0] for _ in range(20_000))
        most_common_items = [item for item, _count in counts.most_common(5)]
        assert most_common_items != [0, 1, 2, 3, 4]

    def test_scramble_is_the_stable_hash_of_the_rank(self):
        """Continuing FNV-1a from the state after ``zipf-`` is the whole
        key's hash, so the scramble places every rank where
        ``stable_uint64(f"zipf-{rank}")`` does (without its process memo)."""
        item_count = 5000
        generator = ZipfianGenerator(item_count, constant=0.5, rng=random.Random(8))
        generator.next_indexes(50_000)
        drawn = [rank for rank, index in enumerate(generator._scramble) if index is not None]
        assert len(drawn) > item_count // 2
        for rank in drawn:
            assert generator._scramble[rank] == stable_uint64(f"zipf-{rank}") % item_count

    def test_constant_one_is_handled(self):
        generator = ZipfianGenerator(100, constant=1.0, rng=random.Random(7))
        assert 0 <= generator.next_indexes(1)[0] < 100

    @pytest.mark.parametrize("item_count", [1, 2])
    def test_one_or_two_items_draw_the_rank_thresholds_only(self, item_count):
        # Two items used to raise ZeroDivisionError: zeta(n) == zeta(2).
        generator = ZipfianGenerator(item_count, rng=random.Random(5))
        draws = Counter(generator.next_indexes(2_000))
        assert set(draws) == set(range(item_count))
        if item_count == 2:
            # Rank 0, the popular one, lands on its scrambled index.
            assert draws.most_common(1)[0][0] == stable_uint64("zipf-0") % 2

    def test_a_two_query_dataset_runs(self):
        from repro.simulation import SimulationConfig, Simulator
        from repro.workloads import DatasetSpec

        config = SimulationConfig(
            dataset=DatasetSpec(num_tables=1, documents_per_table=20, queries_per_table=2),
            num_clients=1,
            connections_per_client=2,
            max_operations=200,
        )
        result = Simulator(config).run()
        assert result.query_latency.count > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, constant=2.5)

    def test_deterministic_with_seeded_rng(self):
        first = ZipfianGenerator(100, rng=random.Random(8))
        second = ZipfianGenerator(100, rng=random.Random(8))
        assert first.next_indexes(50) == second.next_indexes(50)
