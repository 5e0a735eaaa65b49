"""Plain Bloom filter -- the flat, client-facing copy of the EBF."""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Sequence

from repro.bloom.hashing import _blake2_pair_cached as _pair
from repro.bloom.sizing import false_positive_rate, optimal_hash_count

#: Keys one geometry's probe memo holds before it starts over.
PROBE_MEMO_SIZE = 1 << 16


@lru_cache(maxsize=16)
def _probe_memo(num_bits: int, num_hashes: int) -> Dict["str | bytes", tuple]:
    """``key -> ((byte, mask), ...)``: the positions a key probes, in probe
    order.  A pure function of key and geometry, never of the bits, so every
    filter of one geometry shares one memo (the last 16 geometries')."""
    return {}


def _memoised_probes(memo: dict, key: "str | bytes", num_bits: int, num_hashes: int) -> tuple:
    """Compute, memoise and return ``key``'s ``(byte, mask)`` probes."""
    h1, h2 = _pair(key)
    h2 |= 1
    probes: tuple = ()
    for _ in range(num_hashes):
        position = h1 % num_bits
        probes += ((position >> 3, 1 << (position & 7)),)
        h1 += h2
    if len(memo) >= PROBE_MEMO_SIZE:
        memo.clear()
    memo[key] = probes
    return probes


class BloomFilter:
    """A standard bit-array Bloom filter.

    Clients receive this flat representation of the server-side Expiring Bloom
    Filter; it supports membership tests, insertion, bitwise union (used to
    aggregate per-shard EBFs) and compact serialisation.

    ``(num_bits, num_hashes)`` is the filter's whole geometry: the positions a
    key sets come from the memoised blake2b pair of
    :mod:`repro.bloom.hashing`, and ``to_bytes`` emits the raw bit array.
    Membership tests read a key's positions from its geometry's probe memo:
    a repeat key costs ``num_hashes`` byte tests.
    """

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_bits = int(num_bits)
        self.num_hashes = int(num_hashes)
        self._bits = bytearray((self.num_bits + 7) // 8)
        self._count = 0
        self._probes = _probe_memo(self.num_bits, self.num_hashes)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def with_capacity(cls, expected_items: int, target_fp_rate: float = 0.05) -> "BloomFilter":
        """Create a filter sized for ``expected_items`` at ``target_fp_rate``."""
        from repro.bloom.sizing import optimal_bit_count

        bits = optimal_bit_count(expected_items, target_fp_rate)
        hashes = optimal_hash_count(bits, expected_items)
        return cls(bits, hashes)

    @classmethod
    def from_keys(cls, keys: Iterable[str], num_bits: int, num_hashes: int) -> "BloomFilter":
        """Create a filter of fixed geometry containing ``keys``."""
        instance = cls(num_bits, num_hashes)
        instance.add_all(keys)
        return instance

    # -- public API -----------------------------------------------------------

    def add(self, key: str) -> None:
        """Insert ``key`` into the filter."""
        self.add_all((key,))

    def add_all(self, keys: Iterable[str]) -> None:
        """Insert every key of ``keys`` (batch form of :meth:`add`).

        The per-key work is the memoised hash-pair evaluation and the bit sets.
        """
        bits = self._bits
        num_bits = self.num_bits
        hash_range = range(self.num_hashes)
        count = 0
        for key in keys:
            h1, h2 = _pair(key)
            h2 |= 1
            for _ in hash_range:
                position = h1 % num_bits
                bits[position >> 3] |= 1 << (position & 7)
                h1 += h2
            count += 1
        self._count += count

    def contains(self, key: str) -> bool:
        """Return ``True`` if ``key`` is possibly contained (no false negatives).

        One frame: the client SDK probes its EBF copy with this before every
        read and query.
        """
        try:
            probes = self._probes[key]
        except KeyError:
            probes = _memoised_probes(self._probes, key, self.num_bits, self.num_hashes)
        bits = self._bits
        for byte, mask in probes:
            if not bits[byte] & mask:
                return False
        return True

    def contains_all(self, keys: Sequence[str]) -> List[bool]:
        """Batch membership test: one ``bool`` per key, in input order."""
        return list(map(self.contains, keys))

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        """Number of insertions performed (not distinct keys)."""
        return self._count

    def clear(self) -> None:
        """Reset the filter to the empty state."""
        self._bits = bytearray(len(self._bits))
        self._count = 0

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise OR of two filters with identical geometry.

        The OR runs as a single whole-array integer operation instead of a
        per-byte Python loop.
        """
        self._require_same_geometry(other)
        merged = BloomFilter(self.num_bits, self.num_hashes)
        combined = int.from_bytes(self._bits, "little") | int.from_bytes(other._bits, "little")
        merged._bits = bytearray(combined.to_bytes(len(self._bits), "little"))
        merged._count = self._count + other._count
        return merged

    @classmethod
    def union_all(cls, filters: Sequence["BloomFilter"]) -> "BloomFilter":
        """OR an arbitrary number of same-geometry filters in one pass.

        Accumulates into a single integer, avoiding the intermediate filter
        copy per pairwise :meth:`union` (the cluster unions one flat filter
        per shard on every EBF download).
        """
        if not filters:
            raise ValueError("union_all requires at least one filter")
        first = filters[0]
        combined = int.from_bytes(first._bits, "little")
        count = first._count
        for other in filters[1:]:
            first._require_same_geometry(other)
            combined |= int.from_bytes(other._bits, "little")
            count += other._count
        merged = cls(first.num_bits, first.num_hashes)
        merged._bits = bytearray(combined.to_bytes(len(first._bits), "little"))
        merged._count = count
        return merged

    def __or__(self, other: "BloomFilter") -> "BloomFilter":
        return self.union(other)

    def fill_ratio(self) -> float:
        """Fraction of bits set to one (one popcount over the whole array)."""
        return int.from_bytes(self._bits, "little").bit_count() / self.num_bits

    def estimated_false_positive_rate(self) -> float:
        """Expected false positive rate given the number of insertions."""
        return false_positive_rate(self.num_bits, self.num_hashes, self._count)

    # -- serialisation --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise the bit array (the payload piggybacked to clients).

        Receivers pair the raw bits with the geometry ``(num_bits, num_hashes)``.
        """
        return bytes(self._bits)

    @classmethod
    def from_bytes(cls, payload: bytes, num_bits: int, num_hashes: int) -> "BloomFilter":
        """Reconstruct a filter from :meth:`to_bytes` output."""
        instance = cls(num_bits, num_hashes)
        expected = (num_bits + 7) // 8
        if len(payload) != expected:
            raise ValueError(
                f"payload length {len(payload)} does not match geometry "
                f"({expected} bytes expected for {num_bits} bits)"
            )
        instance._bits = bytearray(payload)
        return instance

    def copy(self) -> "BloomFilter":
        """Return an independent copy of this filter."""
        clone = BloomFilter(self.num_bits, self.num_hashes)
        clone._bits = bytearray(self._bits)
        clone._count = self._count
        return clone

    def iter_set_bits(self) -> Iterator[int]:
        """Yield the indexes of all set bits, ascending (diagnostics and tests).

        Walks the whole array as one integer and strips the lowest set bit
        per step, so the cost scales with the *set* bits, not ``num_bits``.
        """
        # Mask off padding bits of the final byte: externally produced
        # payloads may have them set, and indices >= num_bits must not leak.
        value = int.from_bytes(self._bits, "little") & ((1 << self.num_bits) - 1)
        while value:
            lowest = value & -value
            yield lowest.bit_length() - 1
            value ^= lowest

    # -- internals ------------------------------------------------------------

    def _require_same_geometry(self, other: "BloomFilter") -> None:
        if self.num_bits != other.num_bits or self.num_hashes != other.num_hashes:
            raise ValueError(
                "filters must share geometry: "
                f"({self.num_bits}, {self.num_hashes}) vs "
                f"({other.num_bits}, {other.num_hashes})"
            )

    def __repr__(self) -> str:
        return (
            f"BloomFilter(bits={self.num_bits}, hashes={self.num_hashes}, "
            f"insertions={self._count}, "
            f"fill={self.fill_ratio():.4f})"
        )
