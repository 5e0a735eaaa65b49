"""Property-based tests for the Bloom filter family."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.bloom import BloomFilter, CountingBloomFilter, ExpiringBloomFilter
from repro.clock import VirtualClock

keys = st.text(min_size=1, max_size=30)
key_lists = st.lists(keys, min_size=0, max_size=60)


class TestBloomFilterProperties:
    @given(key_lists)
    @settings(max_examples=60)
    def test_no_false_negatives(self, members):
        bloom = BloomFilter(2048, 4)
        for key in members:
            bloom.add(key)
        assert all(bloom.contains(key) for key in members)

    @given(key_lists, key_lists)
    @settings(max_examples=40)
    def test_union_is_superset_of_both(self, left_keys, right_keys):
        left = BloomFilter(1024, 4)
        right = BloomFilter(1024, 4)
        for key in left_keys:
            left.add(key)
        for key in right_keys:
            right.add(key)
        merged = BloomFilter.union_all([left, right])
        assert all(merged.contains(key) for key in left_keys + right_keys)

    @given(key_lists)
    @settings(max_examples=40)
    def test_serialisation_round_trip(self, members):
        bloom = BloomFilter(1024, 3)
        for key in members:
            bloom.add(key)
        restored = BloomFilter.from_bytes(bloom.to_bytes(), 1024, 3)
        assert restored.to_bytes() == bloom.to_bytes()

    @given(key_lists)
    @settings(max_examples=40)
    def test_flat_export_of_counting_filter_equals_rebuild(self, members):
        counting = CountingBloomFilter(1024, 4)
        for key in members:
            counting.add(key)
        rebuilt = BloomFilter(1024, 4)
        rebuilt.add_all(members)
        assert counting.to_flat().to_bytes() == rebuilt.to_bytes()


class TestCountingFilterProperties:
    @given(key_lists, st.data())
    @settings(max_examples=50)
    def test_remove_never_causes_false_negatives_for_remaining_keys(self, members, data):
        counting = CountingBloomFilter(2048, 4)
        distinct = list(dict.fromkeys(members))
        for key in distinct:
            counting.add(key)
        if distinct:
            to_remove = data.draw(
                st.lists(st.sampled_from(distinct), unique=True, max_size=len(distinct))
            )
        else:
            to_remove = []
        for key in to_remove:
            assert counting.remove(key)
        remaining = [key for key in distinct if key not in set(to_remove)]
        flat = counting.to_flat()
        assert all(flat.contains(key) for key in remaining)

    @given(key_lists)
    @settings(max_examples=40)
    def test_add_remove_everything_returns_to_empty(self, members):
        counting = CountingBloomFilter(2048, 4)
        distinct = list(dict.fromkeys(members))
        for key in distinct:
            counting.add(key)
        for key in distinct:
            counting.remove(key)
        assert counting.nonzero_slots() == 0
        assert len(counting) == 0


class TestExpiringBloomFilterProperties:
    @given(
        st.lists(
            st.tuples(keys, st.floats(min_value=0.5, max_value=60.0), st.floats(min_value=0.0, max_value=5.0)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40)
    def test_invalidated_unexpired_keys_are_always_contained(self, operations):
        """No false negatives: every key invalidated within its TTL is flagged."""
        clock = VirtualClock()
        ebf = ExpiringBloomFilter(num_bits=4096, num_hashes=4, clock=clock)
        truly_stale: dict[str, float] = {}
        for key, ttl, gap in operations:
            ebf.report_read(key, ttl)
            clock.advance(gap)
            if ebf.report_invalidation(key):
                deadline = ebf._cacheable_until.get(key)
                if deadline is not None and deadline > clock.now():
                    truly_stale[key] = deadline
        now = clock.now()
        for key, deadline in truly_stale.items():
            if deadline > now:
                assert ebf.contains(key)

    @given(st.lists(st.tuples(keys, st.floats(min_value=0.1, max_value=10.0)), min_size=1, max_size=30))
    @settings(max_examples=40)
    def test_everything_expires_eventually(self, reads):
        clock = VirtualClock()
        ebf = ExpiringBloomFilter(num_bits=4096, num_hashes=4, clock=clock)
        for key, ttl in reads:
            ebf.report_read(key, ttl)
            ebf.report_invalidation(key)
        clock.advance(11.0)  # beyond every possible TTL
        ebf.expire()
        assert len(ebf) == 0
        assert all(not ebf.contains(key) for key, _ttl in reads)
