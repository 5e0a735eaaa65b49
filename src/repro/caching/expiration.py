"""Expiration-based caches (the client's browser cache).

These caches honour TTLs but expose *no* interface through which the server
could remove stale content -- which is exactly why Quaestor needs the Expiring
Bloom Filter: coherence can only be restored by the client choosing to
revalidate instead of reading from such a cache.
"""

from __future__ import annotations

from repro.caching.base import WebCache
from repro.clock import Clock


class ExpirationCache(WebCache):
    """A private, purely TTL-driven HTTP cache that cannot be invalidated
    remotely; it reads ``max-age``."""

    def __init__(self, name: str, clock: Clock) -> None:
        super().__init__(name=name, clock=clock, shared=False)

    @property
    def supports_purge(self) -> bool:
        """Expiration-based caches cannot be purged by the server."""
        return False
