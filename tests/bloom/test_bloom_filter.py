"""Tests for the flat Bloom filter (the client copy)."""

from __future__ import annotations

import pytest

from repro.bloom import BloomFilter


@pytest.fixture
def small_filter() -> BloomFilter:
    return BloomFilter(num_bits=256, num_hashes=4)


class TestMembership:
    def test_added_keys_are_contained(self, small_filter: BloomFilter):
        small_filter.add("query:a")
        small_filter.add("record:posts/1")
        assert "query:a" in small_filter
        assert small_filter.contains("record:posts/1")

    def test_no_false_negatives(self):
        bloom = BloomFilter(4_793, 7)  # 500 keys at a 1 % target rate
        keys = [f"key-{index}" for index in range(500)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.contains(key) for key in keys)

    def test_unknown_key_usually_not_contained(self, small_filter: BloomFilter):
        small_filter.add("present")
        assert not small_filter.contains("definitely-absent-key")

    def test_empty_filter_contains_nothing(self, small_filter: BloomFilter):
        assert not small_filter.contains("anything")

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter(8_143, 6)  # 1 000 keys at a 2 % target rate
        for index in range(1_000):
            bloom.add(f"member-{index}")
        false_positives = sum(
            1 for index in range(10_000) if bloom.contains(f"non-member-{index}")
        )
        assert false_positives / 10_000 < 0.08


class TestConstruction:
    def test_rejects_invalid_geometry(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 4)
        with pytest.raises(ValueError):
            BloomFilter(128, 0)


class TestOperations:
    def test_union_contains_both_sides(self):
        left = BloomFilter(512, 4)
        right = BloomFilter(512, 4)
        left.add("left-key")
        right.add("right-key")
        merged = BloomFilter.union_all([left, right])
        assert merged.contains("left-key")
        assert merged.contains("right-key")

    def test_copy_is_independent(self, small_filter: BloomFilter):
        small_filter.add("original")
        clone = small_filter.copy()
        clone.add("only-in-clone")
        assert not small_filter.contains("only-in-clone")
        assert clone.contains("original")


class TestSerialisation:
    def test_round_trip_preserves_membership(self):
        bloom = BloomFilter(1024, 5)
        for index in range(100):
            bloom.add(f"key-{index}")
        restored = BloomFilter.from_bytes(bloom.to_bytes(), 1024, 5)
        assert all(restored.contains(f"key-{index}") for index in range(100))

    def test_payload_length_matches_geometry(self):
        bloom = BloomFilter(1024, 5)
        assert len(bloom.to_bytes()) == 128

    def test_from_bytes_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"\x00" * 10, 1024, 5)

    def test_iter_set_bits_matches_fill(self):
        bloom = BloomFilter(128, 2)
        bloom.add("key")
        set_bits = list(bloom.iter_set_bits())
        assert 1 <= len(set_bits) <= 2
        assert all(0 <= index < 128 for index in set_bits)
