"""The Expiring Bloom Filter (EBF) -- Quaestor's core coherence structure.

The EBF answers one question: *is this query (or record) potentially stale?*
It combines

* a :class:`~repro.bloom.CountingBloomFilter` holding the keys of all cached
  entries that were invalidated before their TTL ran out, and
* an expiration map tracking, per key, the latest point in time until which
  some cache may still hold the entry (the highest TTL the server ever issued
  for it).  The map holds one entry per key ever read and is never swept:
  a passed deadline already reads as "not cacheable".

A key enters the filter when it is invalidated while still cacheable and is
removed again once its highest issued TTL has expired, because from then on no
standards-compliant cache may serve it anymore.  Only stale keys are
scheduled for that removal (an expiry heap entry per stale deadline), so a
read-only workload leaves the heap empty.  Clients receive flat
snapshots (:meth:`ExpiringBloomFilter.to_flat`) and obtain Delta-atomicity with
Delta equal to the age of their snapshot (Theorem 1 in the paper).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bloom.bloom_filter import BloomFilter
from repro.bloom.counting import CountingBloomFilter
from repro.bloom.sizing import PAPER_DEFAULT_BITS
from repro.clock import Clock, VirtualClock

#: Hash functions of every Expiring Bloom Filter (and its flat snapshots).
EBF_NUM_HASHES = 4


class ExpiringBloomFilter:
    """Server-side Expiring Bloom Filter.

    Parameters
    ----------
    num_bits:
        Size of the underlying Bloom filter, which hashes each key
        :data:`EBF_NUM_HASHES` times.  The default follows the paper's sizing
        (a filter fitting the initial TCP congestion window).
    clock:
        Time source.  A :class:`~repro.clock.VirtualClock` is used by default
        so the structure is fully deterministic under simulation.
    """

    def __init__(
        self,
        num_bits: int = PAPER_DEFAULT_BITS,
        clock: Optional[Clock] = None,
    ) -> None:
        self.num_bits = int(num_bits)
        self._clock: Clock = clock if clock is not None else VirtualClock()
        self._filter = CountingBloomFilter(self.num_bits, EBF_NUM_HASHES)
        # Latest instant until which some cache may hold the key: one entry
        # per key ever read, kept after it passes (a passed deadline reads as
        # "not cacheable", and the next read of the key supersedes it).
        self._cacheable_until: Dict[str, float] = {}
        # Keys currently marked stale, mapped to when they leave the filter.
        self._stale_until: Dict[str, float] = {}
        # Min-heap of (deadline, key), one entry per stale deadline set: only
        # stale keys ever enter it.  Entries may be outdated (the deadline was
        # raised since) and are validated against ``_stale_until`` when popped.
        self._expiry_heap: List[Tuple[float, str]] = []

    # -- time -----------------------------------------------------------------

    def now(self) -> float:
        return self._clock.now()

    # -- server-side bookkeeping ----------------------------------------------

    def report_read(self, key: str, ttl: float, read_time: Optional[float] = None) -> None:
        """Record that ``key`` was served to caches with the given ``ttl``.

        The EBF must know until when caches may legally serve the entry so
        that a later invalidation can decide whether the key has to be added
        to the filter and for how long it has to stay there.
        """
        if not ttl >= 0:  # NaN included
            raise ValueError(f"ttl must be non-negative, got {ttl}")
        timestamp = self.now() if read_time is None else read_time
        cacheable_until = timestamp + ttl
        cacheable = self._cacheable_until
        if key not in cacheable or cacheable_until > cacheable[key]:
            cacheable[key] = cacheable_until
            # A stale key's deadline equals its cacheable one: the newly
            # issued TTL extends its stay in the filter (the highest issued
            # TTL governs), and the heap must hold the new deadline or the
            # key would never leave.
            stale = self._stale_until
            if key in stale:
                stale[key] = cacheable_until
                heapq.heappush(self._expiry_heap, (cacheable_until, key))

    def report_read_many(
        self, keys: Iterable[str], ttl: float, read_time: Optional[float] = None
    ) -> None:
        """Batch form of :meth:`report_read`: one TTL shared by all ``keys``.

        The read pipeline reports every member record of an object-list
        result with the same private TTL; the clock, the deadline and the
        maps are resolved once for the whole batch.
        """
        if not ttl >= 0:  # NaN included
            raise ValueError(f"ttl must be non-negative, got {ttl}")
        timestamp = self.now() if read_time is None else read_time
        cacheable_until = timestamp + ttl
        cacheable = self._cacheable_until
        stale = self._stale_until
        for key in keys:
            if key not in cacheable or cacheable_until > cacheable[key]:
                cacheable[key] = cacheable_until
                if key in stale:  # see report_read
                    stale[key] = cacheable_until
                    heapq.heappush(self._expiry_heap, (cacheable_until, key))

    def report_invalidation(self, key: str, invalidation_time: Optional[float] = None) -> bool:
        """Mark ``key`` stale if any cache may still be holding it.

        Returns ``True`` when the key was (or already is) added to the filter,
        ``False`` when no cache can hold a fresh-looking copy anymore (the
        highest issued TTL has already expired), in which case nothing needs
        to be done.
        """
        timestamp = self.now() if invalidation_time is None else invalidation_time
        self.expire(timestamp)
        cacheable_until = self._cacheable_until.get(key)
        if cacheable_until is None or cacheable_until <= timestamp:
            return False
        # An already stale key needs nothing: while stale, its deadline is
        # raised together with its cacheable one (see report_read).
        stale = self._stale_until
        if key not in stale:
            self._filter.add(key)
            stale[key] = cacheable_until
            heapq.heappush(self._expiry_heap, (cacheable_until, key))
        return True

    def expire(self, now: Optional[float] = None) -> int:
        """Drop every key whose highest issued TTL has expired.

        Returns the number of keys removed from the stale set.  Called lazily
        from the read/query path and explicitly by maintenance loops.
        """
        timestamp = self.now() if now is None else now
        removed = 0
        heap = self._expiry_heap
        while heap and heap[0][0] <= timestamp:
            _, key = heapq.heappop(heap)
            stale_deadline = self._stale_until.get(key)
            if stale_deadline is not None and stale_deadline <= timestamp:
                del self._stale_until[key]
                self._filter.remove(key)
                removed += 1
        return removed

    # -- queries ---------------------------------------------------------------

    def contains(self, key: str, now: Optional[float] = None) -> bool:
        """Probabilistic membership test on the underlying Bloom filter."""
        timestamp = self.now() if now is None else now
        self.expire(timestamp)
        return self._filter._flat.contains(key)

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    # -- snapshots ---------------------------------------------------------------

    def to_flat(self, now: Optional[float] = None) -> BloomFilter:
        """Return the flat client copy of the filter (a plain Bloom filter)."""
        self.expire(self.now() if now is None else now)
        return self._filter.to_flat()

    def fill_ratio(self) -> float:
        """Fraction of filter slots occupied as of the last sweep (no snapshot
        copy); ``len()`` sweeps first, so read it after that."""
        return self._filter.fill_ratio()

    def __len__(self) -> int:
        """Number of currently stale keys."""
        self.expire()
        return len(self._stale_until)

    def __repr__(self) -> str:
        return (
            f"ExpiringBloomFilter(bits={self.num_bits}, hashes={EBF_NUM_HASHES}, "
            f"stale={len(self._stale_until)}, tracked={len(self._cacheable_until)})"
        )
