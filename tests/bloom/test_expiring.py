"""Tests for the Expiring Bloom Filter (the paper's core data structure)."""

from __future__ import annotations

import pytest

from repro.bloom import BloomFilter, ExpiringBloomFilter
from repro.bloom.hashing import stable_uint64
from repro.clock import VirtualClock


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def ebf(clock: VirtualClock) -> ExpiringBloomFilter:
    return ExpiringBloomFilter(num_bits=2048, num_hashes=4, clock=clock)


class TestInvalidation:
    def test_invalidation_within_ttl_marks_stale(self, ebf, clock):
        ebf.report_read("query:q1", ttl=10.0)
        clock.advance(2.0)
        assert ebf.report_invalidation("query:q1") is True
        assert "query:q1" in ebf._stale_until
        assert ebf.contains("query:q1")

    def test_invalidation_after_ttl_is_ignored(self, ebf, clock):
        ebf.report_read("query:q1", ttl=5.0)
        clock.advance(6.0)
        assert ebf.report_invalidation("query:q1") is False
        assert not ebf.contains("query:q1")

    def test_unknown_key_invalidation_is_ignored(self, ebf):
        assert ebf.report_invalidation("query:never-read") is False
        assert len(ebf) == 0

    def test_stale_entry_expires_with_highest_ttl(self, ebf, clock):
        """A stale key leaves the filter once the highest issued TTL expires."""
        ebf.report_read("query:q1", ttl=10.0)
        clock.advance(1.0)
        ebf.report_invalidation("query:q1")
        clock.advance(8.0)
        assert ebf.contains("query:q1")  # 9 s: still within the 10 s TTL window
        clock.advance(2.0)
        assert not ebf.contains("query:q1")  # 11 s: expired everywhere

    def test_new_read_extends_stale_period(self, ebf, clock):
        """Re-reading a stale key with a longer TTL keeps it in the filter longer."""
        ebf.report_read("query:q1", ttl=5.0)
        clock.advance(1.0)
        ebf.report_invalidation("query:q1")
        clock.advance(1.0)
        ebf.report_read("query:q1", ttl=20.0)
        clock.advance(10.0)
        assert ebf.contains("query:q1")

    def test_repeated_invalidations_do_not_double_count(self, ebf, clock):
        ebf.report_read("query:q1", ttl=10.0)
        ebf.report_invalidation("query:q1")
        ebf.report_invalidation("query:q1")
        clock.advance(11.0)
        assert not ebf.contains("query:q1")
        assert len(ebf) == 0

    def test_negative_ttl_rejected(self, ebf):
        with pytest.raises(ValueError):
            ebf.report_read("key", ttl=-1.0)


class TestExpiry:
    def test_expire_returns_number_removed(self, ebf, clock):
        for index in range(5):
            ebf.report_read(f"key-{index}", ttl=3.0)
            ebf.report_invalidation(f"key-{index}")
        clock.advance(4.0)
        assert ebf.expire() == 5
        assert len(ebf) == 0

    def test_len_counts_stale_keys_only(self, ebf, clock):
        ebf.report_read("fresh", ttl=100.0)
        ebf.report_read("stale", ttl=100.0)
        ebf.report_invalidation("stale")
        assert len(ebf) == 1

    def test_cacheable_until_tracks_highest_ttl(self, ebf, clock):
        ebf.report_read("key", ttl=5.0)
        ebf.report_read("key", ttl=2.0)
        assert ebf._cacheable_until["key"] == pytest.approx(5.0)
        ebf.report_read("key", ttl=30.0)
        assert ebf._cacheable_until["key"] == pytest.approx(30.0)


class TestFlatSnapshot:
    def test_flat_copy_reflects_stale_set(self, ebf, clock):
        ebf.report_read("query:stale", ttl=10.0)
        ebf.report_read("query:fresh", ttl=10.0)
        ebf.report_invalidation("query:stale")
        flat = ebf.to_flat()
        assert flat.contains("query:stale")
        assert not flat.contains("query:fresh")

    def test_flat_copy_is_immutable_snapshot(self, ebf):
        flat = ebf.to_flat()
        ebf.report_read("k", ttl=10.0)
        ebf.report_invalidation("k")
        assert not flat.contains("k")


@pytest.mark.parametrize("bits, hashes", [(0, 4), (-8, 4), (64, 0), (64, -1)])
def test_invalid_geometry_rejected(bits, hashes):
    with pytest.raises(ValueError):
        ExpiringBloomFilter(num_bits=bits, num_hashes=hashes)


KEYS = tuple(f"record:posts/p{number}" for number in range(12))


def reads_and_invalidations(filters, clock):
    for number, key in enumerate(KEYS):
        filters.report_read(key, ttl=10.0 + number)
    yield
    for key in KEYS[::2]:
        filters.report_invalidation(key)
        yield


def across_expiry(filters, clock):
    for number, key in enumerate(KEYS):
        filters.report_read(key, ttl=1.0 + number)
    for key in KEYS:
        filters.report_invalidation(key)
    yield
    for _ in KEYS:
        clock.advance(1.0)
        yield


def re_read_extends(filters, clock):
    for key in KEYS:
        filters.report_read(key, ttl=2.0)
        filters.report_invalidation(key)
    for key in KEYS[:4]:
        filters.report_read(key, ttl=20.0)
    yield
    clock.advance(5.0)
    yield
    clock.advance(20.0)
    yield


class ShardedFilters:
    """One shared EBF plus ``shards`` per-shard EBFs, fed the same calls."""

    def __init__(self, shards, clock):
        self.shared = ExpiringBloomFilter(64, 3, clock=clock)
        self.per_shard = [ExpiringBloomFilter(64, 3, clock=clock) for _ in range(shards)]

    def _pair(self, key):
        return self.shared, self.per_shard[stable_uint64(key) % len(self.per_shard)]

    def report_read(self, key, ttl):
        for ebf in self._pair(key):
            ebf.report_read(key, ttl)

    def report_invalidation(self, key):
        for ebf in self._pair(key):
            ebf.report_invalidation(key)


class TestShardedUnion:
    """``union_all`` of per-shard flat copies equals one shared filter."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("scenario", [reads_and_invalidations, across_expiry, re_read_extends])
    def test_union_equals_shared_filter_at_every_step(self, scenario, shards, clock):
        filters = ShardedFilters(shards, clock)
        fills = []
        for _ in scenario(filters, clock):
            union = BloomFilter.union_all([ebf.to_flat() for ebf in filters.per_shard])
            shared = filters.shared.to_flat()
            assert union.to_bytes() == shared.to_bytes()
            fills.append(any(shared.to_bytes()))
        assert any(fills)


class TestDeltaAtomicity:
    def test_theorem1_no_stale_read_beyond_delta(self, clock):
        """Simulate Theorem 1: a client using a filter of age Delta never
        unknowingly reads data that became stale more than Delta ago."""
        ebf = ExpiringBloomFilter(num_bits=4096, num_hashes=4, clock=clock)
        # Server: query cached at t=0 with TTL 60.
        ebf.report_read("query:q", ttl=60.0)
        # Client fetches the flat filter at t=5 (its Delta reference point).
        clock.advance(5.0)
        snapshot_t5 = ebf.to_flat()
        # Write at t=10 invalidates the query.
        clock.advance(5.0)
        ebf.report_invalidation("query:q")
        # A client still using the t=5 snapshot cannot detect the staleness --
        # but the data is at most (now - t_write) stale, and any client that
        # refreshes its snapshot now sees the staleness flag immediately.
        clock.advance(1.0)
        fresh_snapshot = ebf.to_flat()
        assert not snapshot_t5.contains("query:q")
        assert fresh_snapshot.contains("query:q")
