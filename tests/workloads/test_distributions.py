"""Tests for the Zipfian request distribution."""

from __future__ import annotations

import random
from collections import Counter

import pytest

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

    def test_unscrambled_prefers_low_ranks(self):
        generator = ZipfianGenerator(1000, constant=0.99, rng=random.Random(5), scrambled=False)
        counts = Counter(generator.next_indexes(1)[0] for _ in range(20_000))
        assert counts.most_common(1)[0][0] == 0

    def test_scrambling_spreads_popular_items(self):
        generator = ZipfianGenerator(1000, constant=0.99, rng=random.Random(6), scrambled=True)
        counts = Counter(generator.next_indexes(1)[0] for _ in range(20_000))
        most_common_items = [item for item, _count in counts.most_common(5)]
        assert most_common_items != [0, 1, 2, 3, 4]

    def test_constant_one_is_handled(self):
        generator = ZipfianGenerator(100, constant=1.0, rng=random.Random(7))
        assert 0 <= generator.next_indexes(1)[0] < 100

    @pytest.mark.parametrize("item_count", [1, 2])
    def test_one_or_two_items_draw_the_rank_thresholds_only(self, item_count):
        # Two items used to raise ZeroDivisionError: zeta(n) == zeta(2).
        for scrambled in (True, False):
            generator = ZipfianGenerator(item_count, rng=random.Random(5), scrambled=scrambled)
            draws = Counter(generator.next_indexes(2_000))
            assert set(draws) == set(range(item_count))
        if item_count == 2:
            assert draws[0] > draws[1]  # rank 0 is the popular one, unscrambled

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
