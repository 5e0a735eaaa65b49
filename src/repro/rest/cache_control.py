"""Cache-Control header modelling.

Only the directives relevant to Quaestor's caching scheme are modelled:

* ``max-age`` -- TTL honoured by every cache (browser, ISP proxies, CDN),
* ``s-maxage`` -- TTL specific to shared (invalidation-based) caches, which
  may exceed ``max-age`` because those caches can be purged actively,
* ``no-cache`` / ``no-store`` -- used for uncacheable resources and for the
  uncached baseline configuration,
* ``must-revalidate`` -- caches must not serve the entry beyond its TTL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class CacheControl:
    """Parsed representation of a Cache-Control header."""

    max_age: Optional[float] = None
    s_maxage: Optional[float] = None
    no_cache: bool = False
    no_store: bool = False
    must_revalidate: bool = False

    def __post_init__(self) -> None:
        # ``not x >= 0`` also rejects NaN, a lifetime that would never end.
        if self.max_age is not None and not self.max_age >= 0:
            raise ValueError("max-age must be non-negative")
        if self.s_maxage is not None and not self.s_maxage >= 0:
            raise ValueError("s-maxage must be non-negative")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def cacheable(cls, ttl: float, shared_ttl: Optional[float] = None) -> "CacheControl":
        """A cacheable response with ``ttl`` seconds for private caches.

        ``shared_ttl`` (``s-maxage``) defaults to ``ttl`` when not given.
        """
        return cls(max_age=ttl, s_maxage=shared_ttl if shared_ttl is not None else ttl)

    # -- queries -----------------------------------------------------------------

    @property
    def is_cacheable(self) -> bool:
        return not (self.no_store or self.no_cache)

    def ttl_for(self, shared: bool) -> float:
        """Effective freshness lifetime for a shared or private cache."""
        if not self.is_cacheable:
            return 0.0
        if shared and self.s_maxage is not None:
            return self.s_maxage
        return self.max_age if self.max_age is not None else 0.0


#: ``no-cache, no-store``: what every write acknowledgement and error carries.
UNCACHEABLE = CacheControl(no_cache=True, no_store=True)
