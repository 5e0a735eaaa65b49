"""Micro-benchmark of the Expiring Bloom Filter's operation throughput.

The paper reports that the Redis-based EBF implementation sustains more than
150,000 queries or invalidations per second per Redis instance (Section 3.3,
*Scalability*).  These targets measure the reproduction's in-memory EBF
with pytest-benchmark so the cost of the structure on the critical request
path is tracked over time.
"""

from __future__ import annotations

import itertools

from repro.bloom import ExpiringBloomFilter
from repro.bloom.sizing import PAPER_DEFAULT_BITS
from repro.clock import VirtualClock


def _drive_ebf(ebf, clock, keys, ttl: float = 30.0) -> int:
    """One batch of the request-path operation mix: reads, invalidations, lookups."""
    operations = 0
    for key in keys:
        ebf.report_read(key, ttl)
        operations += 1
    for key in keys[:: 3]:
        ebf.report_invalidation(key)
        operations += 1
    for key in keys:
        ebf.contains(key)
        operations += 1
    clock.advance(1.0)
    return operations


def test_in_memory_ebf_operation_throughput(benchmark):
    clock = VirtualClock()
    ebf = ExpiringBloomFilter(num_bits=2 ** 16, clock=clock)
    counter = itertools.count()

    def batch():
        base = next(counter) * 500
        keys = [f"query:bench-{base + index}" for index in range(500)]
        return _drive_ebf(ebf, clock, keys)

    operations = benchmark(batch)
    assert operations == 500 + 167 + 500
    # The flat export stays consistent under load.
    assert ebf.to_flat() is not None


def test_flat_snapshot_export_cost(benchmark):
    """Exporting the client copy must stay cheap even with many stale keys."""
    clock = VirtualClock()
    ebf = ExpiringBloomFilter(num_bits=PAPER_DEFAULT_BITS, clock=clock)
    for index in range(5_000):
        key = f"query:snapshot-{index}"
        ebf.report_read(key, ttl=300.0)
        ebf.report_invalidation(key)

    snapshot = benchmark(ebf.to_flat)
    assert snapshot.contains("query:snapshot-0")
