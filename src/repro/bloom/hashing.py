"""Hash-position generation for Bloom filters.

Uses the Kirsch-Mitzenmacher double hashing construction: two independent
64-bit hashes ``h1`` and ``h2`` combine into ``k`` positions as
``(h1 + i * h2) mod m``, which preserves the asymptotic false positive rate of
``k`` fully independent hash functions while requiring only two evaluations.

The ``(h1, h2)`` pair is one :func:`hashlib.blake2b` call with a 16-byte
digest, split into two 64-bit halves.  The digest is computed in C, so
hashing cost is almost independent of key length, and it is deterministic
across processes (unlike Python's built-in ``hash``, which is salted per
process).  Pairs are memoised in an LRU cache because the read path hashes
the same record/query keys over and over.

The sharding/partitioning hashes :func:`stable_uint64` and
:func:`mixed_uint64` are FNV-1a based -- consistent-hash ring placement and
grid partitioning must not move -- and are memoised as well, since partition
lookups hit the same keys repeatedly on the hot path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Tuple

import hashlib

_FNV_PRIME_64 = 0x100000001B3
_FNV_OFFSET_64 = 0xCBF29CE484222325
_MASK_64 = 0xFFFFFFFFFFFFFFFF

#: Keys memoised by the hash-pair cache (the read path hashes the same
#: record/query keys over and over; cache hits skip the digest entirely).
HASH_PAIR_CACHE_SIZE = 1 << 16


def fnv1a_64(data: bytes, offset: int = _FNV_OFFSET_64) -> int:
    """Compute the 64-bit FNV-1a hash of ``data`` starting from ``offset``."""
    value = offset
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME_64) & _MASK_64
    return value


def _as_bytes(key: "str | bytes") -> bytes:
    if isinstance(key, bytes):
        return key
    return key.encode("utf-8")


_blake2b = hashlib.blake2b


@lru_cache(maxsize=HASH_PAIR_CACHE_SIZE)
def _blake2_pair_cached(key: "str | bytes") -> Tuple[int, int]:
    """The raw ``key -> (h1, h2)`` base-hash pair, memoised per key.

    Cached on the key object itself (``str`` and ``bytes`` spellings of the
    same key occupy separate slots) so cache hits avoid even the UTF-8
    encode.  ``h2`` is forced odd by the caller, not here, so the cached
    value stays the raw digest split; filters bind this function once and
    force ``h2`` odd themselves.
    """
    if not isinstance(key, bytes):
        key = key.encode("utf-8")
    value = int.from_bytes(_blake2b(key, digest_size=16).digest(), "big")
    return value >> 64, value & _MASK_64


def hash_pair(key: "str | bytes") -> Tuple[int, int]:
    """Return the two independent 64-bit base hashes for ``key``."""
    h1, h2 = _blake2_pair_cached(key)
    # h2 must be odd so that it is invertible modulo powers of two and never
    # collapses all k positions onto one slot.
    return h1, h2 | 1


def positions(key: "str | bytes", num_hashes: int, num_bits: int) -> List[int]:
    """Return the ``num_hashes`` bit positions of ``key`` in a filter of ``num_bits``.

    The reference form of the probe loop the filters inline over
    :func:`_blake2_pair_cached`; the golden vectors pin it.
    """
    if num_hashes <= 0:
        raise ValueError("num_hashes must be positive")
    if num_bits <= 0:
        raise ValueError("num_bits must be positive")
    h1, h2 = hash_pair(key)
    return [(h1 + i * h2) % num_bits for i in range(num_hashes)]


@lru_cache(maxsize=HASH_PAIR_CACHE_SIZE)
def _stable_uint64_cached(key: "str | bytes") -> int:
    return fnv1a_64(_as_bytes(key))


def stable_uint64(key: "str | bytes") -> int:
    """A stable 64-bit hash used for sharding/partitioning decisions.

    FNV-1a based and memoised: partition and ring placement must never move.
    """
    return _stable_uint64_cached(key)


def mixed_uint64(key: "str | bytes") -> int:
    """A stable 64-bit hash with strong avalanche across *all* bit positions.

    FNV-1a mixes its low bits well (fine for the modulo-based users of
    :func:`stable_uint64`) but keys sharing a prefix stay close in the upper
    bits, which would cluster them onto one arc of a consistent-hash ring.
    Applying MurmurHash3's 64-bit finaliser spreads them uniformly.
    """
    return _avalanche(stable_uint64(key))


def mixed_uint64_all(prefix: str, suffixes: Iterable[str]) -> List[int]:
    """:func:`mixed_uint64` of ``prefix + suffix`` for every suffix.

    FNV-1a is a left fold over the bytes, so the prefix's state is computed
    once and each suffix continues from it -- exactly the whole key's hash.
    """
    offset = fnv1a_64(prefix.encode("utf-8"))
    return [_avalanche(fnv1a_64(suffix.encode("utf-8"), offset)) for suffix in suffixes]


def _avalanche(value: int) -> int:
    """MurmurHash3's 64-bit finaliser."""
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & _MASK_64
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & _MASK_64
    value ^= value >> 33
    return value
