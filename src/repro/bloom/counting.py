"""Counting Bloom filter -- the mutable server-side representation."""

from __future__ import annotations

from typing import Dict, Iterable

from repro.bloom.bloom_filter import BloomFilter
from repro.bloom.hashing import _blake2_pair_cached as _pair


class CountingBloomFilter:
    """A Bloom filter whose slots are counters, supporting removals.

    The server maintains the Expiring Bloom Filter as a counting filter so
    that queries can be *removed* again once their last issued TTL has
    expired.  A flat :class:`~repro.bloom.BloomFilter` snapshot is kept in
    sync incrementally (only slots transitioning 0 -> 1 or 1 -> 0 touch the
    flat copy), mirroring the paper's note that regenerating the flat filter
    per request would be inefficient.
    """

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_bits = int(num_bits)
        self.num_hashes = int(num_hashes)
        # Sparse counter storage: most slots are zero in practice.
        self._counters: Dict[int, int] = {}
        self._flat = BloomFilter(num_bits, num_hashes)
        self._item_count = 0

    def _slots(self, key: str) -> Dict[int, None]:
        """The distinct positions of ``key``, in probe order.

        Distinct because counting filters must not increment the same counter
        twice for one key, otherwise a later removal would underflow other
        keys' counters.
        """
        num_bits = self.num_bits
        h1, h2 = _pair(key)
        h2 |= 1
        slots: Dict[int, None] = {}
        for _ in range(self.num_hashes):
            slots[h1 % num_bits] = None
            h1 += h2
        return slots

    # -- mutation -------------------------------------------------------------

    def add(self, key: str) -> None:
        """Increment the counters of ``key`` (idempotence is *not* implied)."""
        flat_bits = self._flat._bits
        for position in self._slots(key):
            previous = self._counters.get(position, 0)
            self._counters[position] = previous + 1
            if previous == 0:
                flat_bits[position >> 3] |= 1 << (position & 7)
        self._item_count += 1

    def add_all(self, keys: Iterable[str]) -> None:
        """Insert every key of ``keys`` (batch form of :meth:`add`)."""
        for key in keys:
            self.add(key)

    def remove(self, key: str) -> bool:
        """Decrement the counters of ``key``.

        Returns ``False`` (and leaves the filter untouched) when the key is
        definitely not contained, which protects against counter underflow.
        """
        slots = self._slots(key)
        if any(self._counters.get(position, 0) == 0 for position in slots):
            return False
        for position in slots:
            remaining = self._counters[position] - 1
            if remaining == 0:
                del self._counters[position]
                self._clear_flat_bit(position)
            else:
                self._counters[position] = remaining
        self._item_count = max(0, self._item_count - 1)
        return True

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        """Number of logically contained items (adds minus successful removes)."""
        return self._item_count

    def counter(self, position: int) -> int:
        """Value of an individual counter slot (diagnostics and tests)."""
        if not 0 <= position < self.num_bits:
            raise IndexError(f"position {position} out of range [0, {self.num_bits})")
        return self._counters.get(position, 0)

    def nonzero_slots(self) -> int:
        """Number of slots with a non-zero counter."""
        return len(self._counters)

    def fill_ratio(self) -> float:
        """Fraction of slots with a non-zero counter (flat-filter fill)."""
        return len(self._counters) / self.num_bits

    def to_flat(self) -> BloomFilter:
        """Return an independent flat snapshot of the current membership."""
        return self._flat.copy()

    # -- internals ------------------------------------------------------------

    def _clear_flat_bit(self, index: int) -> None:
        self._flat._bits[index >> 3] &= ~(1 << (index & 7)) & 0xFF

    def __repr__(self) -> str:
        return (
            f"CountingBloomFilter(bits={self.num_bits}, hashes={self.num_hashes}, "
            f"items={self._item_count}, nonzero={self.nonzero_slots()})"
        )
