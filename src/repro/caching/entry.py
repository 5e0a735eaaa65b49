"""Cache entries: a stored response plus freshness bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass(slots=True)
class CacheEntry:
    """A cached representation of one resource (record or query result).

    ``__slots__`` keeps the per-entry footprint small and construction cheap:
    web caches create one of these for every store, and the simulator's
    object-list side-effect caching stores one per member record per query.
    """

    key: str
    body: Any
    etag: Optional[str]
    stored_at: float
    ttl: float

    def __post_init__(self) -> None:
        if not self.ttl >= 0:  # also rejects NaN, which would never expire
            raise ValueError("ttl must be non-negative")

    @property
    def fresh_until(self) -> float:
        """Instant at which the entry expires."""
        return self.stored_at + self.ttl

    def is_fresh(self, now: float) -> bool:
        """Whether the entry may still be served without revalidation."""
        return now < self.fresh_until

    def age(self, now: float) -> float:
        """Seconds since the entry was stored (never negative)."""
        return max(0.0, now - self.stored_at)

    def remaining_ttl(self, now: float) -> float:
        """Seconds of freshness left (zero when already expired)."""
        return max(0.0, self.fresh_until - now)

    def refreshed(self, now: float, ttl: Optional[float] = None) -> "CacheEntry":
        """A copy of the entry re-stamped at ``now`` (after a 304 revalidation)."""
        return CacheEntry(
            key=self.key,
            body=self.body,
            etag=self.etag,
            stored_at=now,
            ttl=self.ttl if ttl is None else ttl,
        )
