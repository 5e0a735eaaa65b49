"""Tests for the Counting Bloom filter."""

from __future__ import annotations

import pytest

from repro.bloom import CountingBloomFilter, hashing


def contains(counting: CountingBloomFilter, key: str) -> bool:
    """Membership through the flat snapshot (a bit is set iff its counter is non-zero)."""
    return counting.to_flat().contains(key)


@pytest.fixture
def counting() -> CountingBloomFilter:
    return CountingBloomFilter(num_bits=512, num_hashes=4)


class TestAddRemove:
    def test_add_then_contains(self, counting: CountingBloomFilter):
        counting.add("query:a")
        assert contains(counting, "query:a")
        assert len(counting) == 1

    def test_remove_clears_membership(self, counting: CountingBloomFilter):
        counting.add("query:a")
        assert counting.remove("query:a") is True
        assert not contains(counting, "query:a")
        assert len(counting) == 0

    def test_remove_absent_key_is_noop(self, counting: CountingBloomFilter):
        counting.add("present")
        assert counting.remove("never-added-key-xyz") is False
        assert contains(counting, "present")

    def test_double_add_requires_double_remove(self, counting: CountingBloomFilter):
        counting.add("key")
        counting.add("key")
        counting.remove("key")
        assert contains(counting, "key")
        counting.remove("key")
        assert not contains(counting, "key")

    def test_removing_one_key_keeps_others(self, counting: CountingBloomFilter):
        keys = [f"key-{index}" for index in range(50)]
        for key in keys:
            counting.add(key)
        counting.remove("key-0")
        assert all(contains(counting, key) for key in keys[1:])


class TestCounters:
    def test_counter_values_track_additions(self, counting: CountingBloomFilter):
        counting.add("key")
        nonzero = [
            position for position in range(counting.num_bits) if counting.counter(position) > 0
        ]
        assert 1 <= len(nonzero) <= counting.num_hashes
        assert all(counting.counter(position) == 1 for position in nonzero)

    def test_colliding_probes_increment_each_counter_once(self):
        """8 probes into 6 slots must collide; each slot still counts one."""
        counting = CountingBloomFilter(num_bits=6, num_hashes=8)
        counting.add("key")
        assert counting.nonzero_slots() < 8
        assert all(counting.counter(position) in (0, 1) for position in range(6))
        assert counting.remove("key")
        assert counting.nonzero_slots() == 0

    def test_counters_sit_on_the_probe_positions(self):
        counting = CountingBloomFilter(num_bits=6, num_hashes=8)
        counting.add("key")
        nonzero = {position for position in range(6) if counting.counter(position)}
        assert nonzero == set(hashing.positions("key", 8, 6))

    def test_counter_out_of_range(self, counting: CountingBloomFilter):
        with pytest.raises(IndexError):
            counting.counter(counting.num_bits)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(0, 1)
        with pytest.raises(ValueError):
            CountingBloomFilter(10, 0)


class TestFlatSnapshot:
    def test_flat_snapshot_matches_membership(self, counting: CountingBloomFilter):
        for index in range(25):
            counting.add(f"key-{index}")
        flat = counting.to_flat()
        assert all(flat.contains(f"key-{index}") for index in range(25))

    def test_flat_snapshot_updates_on_removal(self, counting: CountingBloomFilter):
        counting.add("ephemeral")
        counting.remove("ephemeral")
        assert not counting.to_flat().contains("ephemeral")

    def test_flat_snapshot_is_a_copy(self, counting: CountingBloomFilter):
        snapshot = counting.to_flat()
        counting.add("added-later")
        assert not snapshot.contains("added-later")

    def test_incremental_snapshot_equals_rebuild(self, counting: CountingBloomFilter):
        """The incrementally maintained flat filter matches a full rebuild."""
        from repro.bloom import BloomFilter

        keys = [f"key-{index}" for index in range(60)]
        for key in keys:
            counting.add(key)
        for key in keys[::3]:
            counting.remove(key)
        remaining = [key for index, key in enumerate(keys) if index % 3 != 0]
        rebuilt = BloomFilter(counting.num_bits, counting.num_hashes)
        rebuilt.add_all(remaining)
        assert counting.to_flat().to_bytes() == rebuilt.to_bytes()
