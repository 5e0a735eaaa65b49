"""Cache hierarchies: the request path from client to origin.

A :class:`CacheHierarchy` chains an ordered list of caches (closest to the
client first) in front of an origin callable.  Fetches walk the chain until a
fresh entry is found; responses travel back down the chain and populate every
cache on the path -- the standard behaviour of the web's caching
infrastructure that Quaestor piggybacks on.

Revalidations (triggered when the client's Expiring Bloom Filter flags a key
as potentially stale) skip expiration-based caches for *serving*, but may
still be answered by invalidation-based caches, reflecting the paper's
optimisation of answering revalidation requests at the CDN whenever the
invalidation latency is accounted for in the client's staleness bound.

Public entry points
-------------------
* :meth:`CacheHierarchy.fetch` -- resolve a cache key through the chain
  (optionally as a revalidation or a bypass-all strong read); responses
  populate every consulted cache on the way back.
* :class:`FetchResult` -- where a fetch was answered (``level``), which the
  simulator maps to a network latency.

Cluster integration
-------------------
The hierarchy is origin-agnostic: its ``origin`` callable may be backed by a
single :class:`~repro.core.QuaestorServer` or by the
:class:`~repro.cluster.ClusterClient` facade of a sharded deployment -- the
:class:`~repro.client.QuaestorClient` builds the chain identically in both
cases.  Cache keys are global (records carry their owning shard only inside
the router), so shared caches like the CDN need no cluster awareness: a purge
issued by any shard evicts the merged entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.caching.base import WebCache
from repro.caching.entry import CacheEntry
from repro.rest.messages import Response

#: The origin resolves a cache key to a full response (body + TTLs + Etag).
OriginFunction = Callable[[str], Response]

#: Synthetic level name used when the origin had to answer the request.
ORIGIN_LEVEL = "origin"


@dataclass(slots=True)
class FetchResult:
    """Outcome of a hierarchy fetch (one is minted per request).

    Value-compared and slotted, but deliberately not ``frozen``: a frozen
    dataclass assigns every field through ``object.__setattr__``, which
    makes constructing one several times dearer than everything else a
    first-level cache hit does.  Treat instances as read-only.
    """

    key: str
    body: Any
    etag: Optional[str]
    level: str
    revalidated: bool


class CacheHierarchy:
    """An ordered chain of web caches in front of an origin."""

    def __init__(self, levels: Sequence[Tuple[str, WebCache]], origin: OriginFunction) -> None:
        names = [name for name, _cache in levels]
        if len(set(names)) != len(names):
            raise ValueError(f"cache level names must be unique, got {names}")
        self._levels: List[Tuple[str, WebCache]] = list(levels)
        self._origin = origin
        # Fast-path binding, fixed for the hierarchy's lifetime: a prebound
        # (name, cache, may-serve-revalidation) list so fetch() does not
        # re-dispatch the ``supports_purge`` property per level per request.
        self._serve_plan: List[Tuple[str, WebCache, bool]] = [
            (name, cache, self._may_serve_revalidation(cache)) for name, cache in self._levels
        ]

    # -- introspection -------------------------------------------------------------

    @property
    def level_names(self) -> List[str]:
        return [name for name, _cache in self._levels]

    # -- request path ------------------------------------------------------------------

    def fetch(
        self,
        key: str,
        now: float,
        revalidate: bool = False,
        bypass_all_caches: bool = False,
    ) -> FetchResult:
        """Resolve ``key`` through the cache chain.

        Parameters
        ----------
        now:
            The caller's instant, for every level's freshness check.
        revalidate:
            Skip *expiration-based* caches for serving (they cannot be trusted
            for this key); invalidation-based caches may still answer because
            the server actively purges them.
        bypass_all_caches:
            Force the request through to the origin regardless of cache
            freshness (used for strong consistency / linearizable reads).
        """
        if not bypass_all_caches:
            # Walk the prebound plan and answer from inside the loop: a hit
            # at the first level is one lookup and one result, nothing else.
            for index, (name, cache, serves_revalidation) in enumerate(self._serve_plan):
                # Under revalidation, expiration-based caches are bypassed
                # for serving; the response refreshes them on its way back.
                if serves_revalidation or not revalidate:
                    entry = cache.lookup(key, now)
                    if entry is not None:
                        if index:
                            self._refresh_downstream(self._levels[:index], entry)
                        return FetchResult(key, entry.body, entry.etag, name, revalidate)

        response = self._origin(key)
        self._populate(self._levels, key, response)
        return FetchResult(
            key, response.body, response.etag, ORIGIN_LEVEL, revalidate or bypass_all_caches
        )

    # -- internals ----------------------------------------------------------------------

    @staticmethod
    def _may_serve_revalidation(cache: WebCache) -> bool:
        return getattr(cache, "supports_purge", False)

    @staticmethod
    def _populate(consulted: List[Tuple[str, WebCache]], key: str, response: Response) -> None:
        for _name, cache in consulted:
            cache.store(key, response)

    @staticmethod
    def _refresh_downstream(downstream: List[Tuple[str, WebCache]], entry: CacheEntry) -> None:
        """Copy the hit entry into the caches between the client and the hit level."""
        for _name, cache in downstream:
            # Downstream copies inherit the upstream entry's absolute expiry so
            # a client-cache copy never outlives the CDN copy it came from.
            cache.store_entry(entry.refreshed(entry.stored_at, entry.ttl))
