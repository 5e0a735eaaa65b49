"""Batch APIs, whole-array bit operations and the hash-pair memo of the Bloom stack."""

from __future__ import annotations

import pytest

from repro.bloom import BloomFilter, CountingBloomFilter, ExpiringBloomFilter
from repro.bloom import hashing
from repro.clock import VirtualClock

KEYS = [f"record:posts/{index}" for index in range(64)]
ABSENT = [f"record:posts/absent-{index}" for index in range(64)]


def fill_ratio(bloom: BloomFilter) -> float:
    """Share of a flat filter's bits that are set, counted byte by byte."""
    return sum(bin(byte).count("1") for byte in bloom.to_bytes()) / bloom.num_bits


class TestBatchApis:
    def test_add_all_equals_repeated_add(self):
        batch = BloomFilter(2048, 4)
        batch.add_all(KEYS)
        single = BloomFilter(2048, 4)
        for key in KEYS:
            single.add(key)
        assert batch.to_bytes() == single.to_bytes()
        assert len(batch) == len(single) == len(KEYS)

    def test_contains_all_equals_repeated_contains(self):
        bloom = BloomFilter(2048, 4)
        bloom.add_all(KEYS)
        probes = KEYS + ABSENT
        assert bloom.contains_all(probes) == [bloom.contains(key) for key in probes]

    def test_counting_batch_apis(self):
        counting = CountingBloomFilter(2048, 4)
        counting.add_all(KEYS)
        assert counting.to_flat().contains_all(KEYS) == [True] * len(KEYS)
        for key in KEYS:
            assert counting.remove(key)
        assert counting.nonzero_slots() == 0

    def test_expiring_report_read_many_matches_singles(self):
        clock = VirtualClock()
        batch = ExpiringBloomFilter(num_bits=2048, num_hashes=4, clock=clock)
        single = ExpiringBloomFilter(num_bits=2048, num_hashes=4, clock=clock)
        batch.report_read_many(KEYS, ttl=10.0, read_time=0.0)
        for key in KEYS:
            single.report_read(key, ttl=10.0, read_time=0.0)
        for key in KEYS:
            assert batch._cacheable_until[key] == single._cacheable_until[key]
            assert batch.report_invalidation(key, 1.0)
            assert single.report_invalidation(key, 1.0)
        assert batch.to_flat(1.0).to_bytes() == single.to_flat(1.0).to_bytes()

    def test_expiring_report_read_many_rejects_negative_ttl(self):
        ebf = ExpiringBloomFilter(num_bits=256, num_hashes=2)
        with pytest.raises(ValueError):
            ebf.report_read_many(["a"], ttl=-1.0)


class TestWholeArrayOps:
    def test_iter_set_bits_ascending_and_complete(self):
        bloom = BloomFilter(512, 3)
        bloom.add_all(KEYS[:10])
        observed = list(bloom.iter_set_bits())
        assert observed == sorted(observed)
        payload = bloom.to_bytes()
        expected = [
            index
            for index in range(512)
            if payload[index >> 3] & (1 << (index & 7))
        ]
        assert observed == expected

    def test_union_all_matches_per_byte_reference(self):
        filters = []
        for start in range(0, 64, 16):
            bloom = BloomFilter(1024, 4)
            bloom.add_all(KEYS[start : start + 16])
            filters.append(bloom)
        reference = bytes(
            a | b | c | d for a, b, c, d in zip(*(bloom.to_bytes() for bloom in filters))
        )
        merged = BloomFilter.union_all(filters)
        assert merged.to_bytes() == reference
        assert len(merged) == 64

    def test_union_all_requires_filters_and_same_geometry(self):
        with pytest.raises(ValueError):
            BloomFilter.union_all([])
        with pytest.raises(ValueError):
            BloomFilter.union_all([BloomFilter(128, 4), BloomFilter(256, 4)])


class TestSchemePlumbing:
    def test_counting_fill_ratio_tracks_flat(self):
        counting = CountingBloomFilter(1024, 4)
        counting.add_all(KEYS[:16])
        assert counting.fill_ratio() == fill_ratio(counting.to_flat())

    def test_expiring_fill_ratio_without_copy(self):
        ebf = ExpiringBloomFilter(num_bits=1024, num_hashes=4)
        ebf.report_read("key", ttl=100.0, read_time=0.0)
        assert ebf.report_invalidation("key", 1.0)
        assert ebf.fill_ratio() == fill_ratio(ebf.to_flat(1.0)) > 0.0

    def test_hash_pair_cache_serves_hits(self):
        hashing.hash_pair("cached-key")
        before = hashing._blake2_pair_cached.cache_info().hits
        hashing.hash_pair("cached-key")
        assert hashing._blake2_pair_cached.cache_info().hits == before + 1
