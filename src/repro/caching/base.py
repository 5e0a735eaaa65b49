"""Common behaviour of HTTP caches (storage and freshness)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.caching.entry import CacheEntry
from repro.caching.stats import CacheStatistics
from repro.clock import Clock
from repro.rest.messages import Response


class WebCache:
    """A standards-following HTTP cache.

    The cache stores responses under their resource URL (cache key) and
    serves them while fresh; it is unbounded, so nothing is ever evicted.
    Whether the cache is *shared* determines which Cache-Control directive
    governs its TTL (``s-maxage`` for shared caches, ``max-age`` otherwise).
    """

    def __init__(self, name: str, clock: Clock, shared: bool) -> None:
        self.name = name
        self.shared = shared
        self._clock = clock
        self._entries: Dict[str, CacheEntry] = {}
        self.stats = CacheStatistics()

    # -- lookups ---------------------------------------------------------------------

    def lookup(self, key: str, now: float) -> Optional[CacheEntry]:
        """The fresh entry for ``key`` at the caller's instant ``now``, or
        ``None``; counts the hit or miss."""
        entries = self._entries
        stats = self.stats
        if key not in entries:
            stats.misses += 1
            return None
        entry = entries[key]
        if now >= entry.stored_at + entry.ttl:  # not entry.is_fresh(now)
            stats.misses += 1
            stats.stale_hits += 1
            return None
        stats.hits += 1
        return entry

    def peek(self, key: str) -> Optional[CacheEntry]:
        """Return the entry even if stale, without touching statistics.

        Used for conditional revalidation (the stale entry's Etag is sent to
        the origin) and by the staleness auditor.
        """
        return self._entries.get(key)

    # -- stores ------------------------------------------------------------------------

    def store(self, key: str, response: Response) -> Optional[CacheEntry]:
        """Store ``response`` under ``key`` if it is cacheable for this cache."""
        if not response.is_cacheable:
            return None
        ttl = response.ttl_for(shared=self.shared)
        if not ttl > 0:
            return None
        entry = CacheEntry(
            key=key,
            body=response.body,
            etag=response.etag,
            stored_at=self._clock.now(),
            ttl=ttl,
        )
        self._insert(key, entry)
        return entry

    def restamp(self, entries: Sequence[CacheEntry], ttl: float, now: float) -> None:
        """Re-store a batch of entries this cache owns, fresh for ``ttl`` from ``now``.

        The SDK's object-list side-caching: every serve of a query result
        re-stores its member records, and the entries of one result version
        are built once and restamped here on each re-serve.  The outcome --
        map content and ``stats`` -- is exactly that of storing a new entry
        per member in sequence order, minus the entry construction and a
        clock read per member (``now`` is the caller's instant).  Only a
        positive ``ttl`` stores anything, so a negative or NaN one never
        reaches an entry.

        Ownership: the entries are *mutated* (``stored_at`` / ``ttl``), so
        they must be private to this cache and its caller.  Nothing else may
        hold one: an entry leaves a cache for another only as a
        :meth:`CacheEntry.refreshed` copy.
        """
        if not ttl > 0:
            return
        store = self._entries
        for entry in entries:
            entry.stored_at = now
            entry.ttl = ttl
            store[entry.key] = entry
        self.stats.stores += len(entries)

    def store_entry(self, entry: CacheEntry) -> None:
        """Store a pre-built entry (used by 304 refresh paths)."""
        self._insert(entry.key, entry)

    def _insert(self, key: str, entry: CacheEntry) -> None:
        self._entries[key] = entry
        self.stats.stores += 1

    # -- removal ------------------------------------------------------------------------

    def remove(self, key: str) -> bool:
        """Drop ``key`` from the cache (not counted as a purge)."""
        return self._entries.pop(key, None) is not None

    # -- introspection ----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, entries={len(self._entries)}, "
            f"hit_rate={self.stats.hit_rate:.3f})"
        )
