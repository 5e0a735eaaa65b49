"""Bloom filter family used by Quaestor's cache coherence mechanism.

The central data structure of the paper is the *Expiring Bloom Filter* (EBF):
a Counting Bloom filter maintained at the server that tracks which queries and
records became stale before their TTL expired, paired with an expiration map
that removes entries once every previously issued TTL has run out.  Clients
receive a flat (non-counting) copy of the filter and consult it before every
read to decide between a cached load and a revalidation.

Every filter is in-memory and owned by one server; a sharded deployment
unions the per-shard flat copies (:meth:`BloomFilter.union_all`) instead of
sharing one Redis-backed filter as the paper does.

Modules
-------
``hashing``
    The blake2b double-hashing scheme producing *k* bit positions, and the
    FNV-based placement hashes of the sharding layer.
``sizing``
    False-positive-rate arithmetic: optimal bit count and hash count.
``bloom_filter``
    Plain immutable-ish Bloom filter (the flat client copy).
``counting``
    Counting Bloom filter supporting removals.
``expiring``
    The Expiring Bloom Filter: counting filter + TTL/expiration tracking.
"""

from __future__ import annotations

from repro.bloom.bloom_filter import BloomFilter
from repro.bloom.counting import CountingBloomFilter
from repro.bloom.expiring import ExpiringBloomFilter
from repro.bloom.sizing import (
    false_positive_rate,
    optimal_bit_count,
    optimal_hash_count,
)

__all__ = [
    "BloomFilter",
    "CountingBloomFilter",
    "ExpiringBloomFilter",
    "false_positive_rate",
    "optimal_bit_count",
    "optimal_hash_count",
]
