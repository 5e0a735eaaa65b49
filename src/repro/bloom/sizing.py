"""Sizing of the client-facing Bloom filter.

The paper sizes the client-facing Bloom filter so that it fits into the
initial TCP congestion window (about 14.6 KB), which at 20,000 contained
stale queries yields a false positive rate of roughly 6 %.
:class:`repro.bloom.ExpiringBloomFilter` and the server configuration take
their default geometry from here.
"""

from __future__ import annotations

#: Default filter size used by the paper: ten 1460-byte TCP segments.
PAPER_DEFAULT_BITS = 10 * 1460 * 8
