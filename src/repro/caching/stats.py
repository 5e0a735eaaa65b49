"""Hit/miss accounting for caches and cache hierarchies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class CacheStatistics:
    """Counters describing the traffic a single cache has seen."""

    hits: int = 0
    misses: int = 0
    stale_hits: int = 0
    stores: int = 0
    purges: int = 0
    evictions: int = 0
    revalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when idle)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary form used by reporters and benchmarks."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale_hits": self.stale_hits,
            "stores": self.stores,
            "purges": self.purges,
            "evictions": self.evictions,
            "revalidations": self.revalidations,
            "hit_rate": self.hit_rate,
        }
