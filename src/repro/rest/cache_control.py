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

    @classmethod
    def uncacheable(cls) -> "CacheControl":
        """A response no cache may store (instances are immutable: one is shared)."""
        return UNCACHEABLE

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

    # -- (de)serialisation ----------------------------------------------------------

    def to_header(self) -> str:
        """Serialise to a Cache-Control header value."""
        parts = []
        if self.no_store:
            parts.append("no-store")
        if self.no_cache:
            parts.append("no-cache")
        if self.max_age is not None:
            parts.append(f"max-age={int(self.max_age)}")
        if self.s_maxage is not None:
            parts.append(f"s-maxage={int(self.s_maxage)}")
        if self.must_revalidate:
            parts.append("must-revalidate")
        return ", ".join(parts) if parts else "no-cache"

    @classmethod
    def from_header(cls, header: str) -> "CacheControl":
        """Parse a Cache-Control header value (unknown directives are ignored)."""
        max_age: Optional[float] = None
        s_maxage: Optional[float] = None
        no_cache = False
        no_store = False
        must_revalidate = False
        for raw in header.split(","):
            directive = raw.strip().lower()
            if not directive:
                continue
            if directive == "no-cache":
                no_cache = True
            elif directive == "no-store":
                no_store = True
            elif directive == "must-revalidate":
                must_revalidate = True
            elif directive.startswith("max-age="):
                max_age = float(directive.split("=", 1)[1])
            elif directive.startswith("s-maxage="):
                s_maxage = float(directive.split("=", 1)[1])
        return cls(
            max_age=max_age,
            s_maxage=s_maxage,
            no_cache=no_cache,
            no_store=no_store,
            must_revalidate=must_revalidate,
        )


#: ``no-cache, no-store``: what every write acknowledgement and error carries.
UNCACHEABLE = CacheControl(no_cache=True, no_store=True)
