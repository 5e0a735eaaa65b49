"""Invalidation-based caches (CDN edge caches, reverse proxies).

In addition to TTL expiration, these caches accept asynchronous purge requests
from the origin.  Quaestor sends such purges whenever InvaliDB reports that a
cached query result or record has become stale, which keeps CDN staleness very
low (below 0.1 % in the paper's experiments).
"""

from __future__ import annotations

from typing import Optional

from repro.caching.base import WebCache
from repro.clock import Clock


class InvalidationCache(WebCache):
    """A shared HTTP cache supporting server-initiated purges."""

    def __init__(
        self,
        name: str,
        clock: Clock,
        max_entries: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, clock=clock, shared=True, max_entries=max_entries)

    @property
    def supports_purge(self) -> bool:
        return True

    def purge(self, key: str) -> bool:
        """Remove ``key`` immediately; returns whether an entry was removed."""
        removed = self.remove(key)
        self.stats.purges += 1
        return removed
