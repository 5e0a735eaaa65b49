"""Per-shard Expiring Bloom Filters, unioned, equal one shared filter.

The paper shares one Redis-backed EBF between all servers; a sharded
deployment here keeps one in-memory EBF per shard and hands clients the OR
of their flat copies (``BloomFilter.union_all`` in
``QuaestorCluster.bloom_filter``).  The two agree because every key lives on
exactly one shard and a flat bit is set iff some counter over it is above
zero: the shared filter's counter at a position is the sum of the shard
counters there.  This property drives ``S`` shard filters, each key routed by
``stable_uint64(key) % S``, and one shared filter of the same geometry with
the same generated reads, invalidations and clock advances, and requires the
union of the shard snapshots to equal the shared snapshot byte for byte after
every step, through expiry.  Taking a snapshot expires its filter, so every
filter here is expired at the same instants; where they are not, the shard
filters can keep a key longer, never shorter ("Shared EBF versus per-shard
EBFs" in ``docs/architecture.md``).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.bloom import BloomFilter, ExpiringBloomFilter
from repro.bloom.hashing import stable_uint64
from repro.clock import VirtualClock

KEYS = tuple(f"record:posts/p{number}" for number in range(6)) + tuple(
    f'query:{{"c":"posts","q":{{"category":{number}}}}}' for number in range(2)
)
#: Small enough that keys of different shards share positions.
BITS = 32

operations = st.one_of(
    st.tuples(st.just("read"), st.sampled_from(KEYS), st.floats(min_value=0.0, max_value=8.0)),
    st.tuples(st.just("invalidate"), st.sampled_from(KEYS), st.just(0.0)),
    st.tuples(st.just("advance"), st.just(""), st.floats(min_value=0.0, max_value=3.0)),
)


@given(st.sampled_from([2, 3, 4]), st.lists(operations, min_size=10, max_size=60))
@settings(max_examples=200, deadline=None)
def test_union_of_shard_filters_equals_one_shared_filter(shards, steps):
    clock = VirtualClock()
    shared = ExpiringBloomFilter(BITS, clock=clock)
    per_shard = [ExpiringBloomFilter(BITS, clock=clock) for _ in range(shards)]
    for kind, key, amount in steps:
        if kind == "advance":
            clock.advance(amount)
        else:
            owner = per_shard[stable_uint64(key) % shards]
            for ebf in (shared, owner):
                if kind == "read":
                    ebf.report_read(key, amount)
                else:
                    ebf.report_invalidation(key)
        union = BloomFilter.union_all([ebf.to_flat() for ebf in per_shard])
        assert union.to_bytes() == shared.to_flat().to_bytes()
