"""Configuration of the Quaestor middleware."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bloom.sizing import PAPER_DEFAULT_BITS
from repro.errors import ConfigurationError
from repro.ttl.base import TTLBounds, TTLEstimator
from repro.ttl.spec import TTLEstimatorSpec


@dataclass
class QuaestorConfig:
    """Tunable parameters of a Quaestor deployment.

    The defaults reproduce the paper's evaluation setup: an Expiring Bloom
    Filter sized to the initial TCP congestion window, median-quantile Poisson
    TTLs refined by an EWMA, invalidation-based caches receiving longer
    (purgeable) TTLs than expiration-based ones, and caching enabled for both
    records and queries.
    """

    # -- Expiring Bloom Filter ------------------------------------------------------
    ebf_bits: int = PAPER_DEFAULT_BITS

    # -- TTL estimation --------------------------------------------------------------
    #: Which TTL estimator family serves this deployment, selected by name
    #: from the :mod:`repro.ttl.spec` registry.  The default is the bake-off
    #: winner (``BENCH_ttl.json``).  This is the one way to choose it.
    ttl_estimator: TTLEstimatorSpec = field(default_factory=TTLEstimatorSpec)
    ttl_quantile: float = 0.5
    ewma_alpha: float = 0.7
    ttl_bounds: TTLBounds = field(default_factory=lambda: TTLBounds(minimum=1.0, maximum=600.0))
    #: Multiplier applied to the estimator's TTL for invalidation-based caches
    #: (they can be purged, so a longer s-maxage is safe and raises hit rates).
    cdn_ttl_factor: float = 3.0

    # -- caching switch -----------------------------------------------------------------
    #: Whether records and query results are served cacheable.  ``False`` is
    #: the uncached baseline (``CachingMode.UNCACHED``): every response goes
    #: out uncacheable and no query is admitted for invalidation matching.
    caching: bool = True

    # -- representation cost model --------------------------------------------------------
    #: Result sizes up to this threshold are served as object-lists by default.
    object_list_max_size: int = 50
    #: Estimated client cache hit rate for individual records, used when
    #: weighing the extra round-trips an id-list would require.
    assumed_record_hit_rate: float = 0.6

    # -- capacity management ----------------------------------------------------------------
    max_active_queries: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ebf_bits <= 0:
            raise ConfigurationError("EBF geometry must be positive")
        if not isinstance(self.ttl_estimator, TTLEstimatorSpec):
            raise ConfigurationError("ttl_estimator must be a TTLEstimatorSpec")
        if not 0.0 < self.ttl_quantile < 1.0:
            raise ConfigurationError("ttl_quantile must lie strictly between 0 and 1")
        if not 0.0 <= self.ewma_alpha < 1.0:
            raise ConfigurationError("ewma_alpha must lie in [0, 1)")
        if self.cdn_ttl_factor < 1.0:
            raise ConfigurationError("cdn_ttl_factor must be at least 1.0")
        if self.object_list_max_size < 0:
            raise ConfigurationError("object_list_max_size must be non-negative")
        if not 0.0 <= self.assumed_record_hit_rate <= 1.0:
            raise ConfigurationError("assumed_record_hit_rate must lie in [0, 1]")

    # -- derived components ------------------------------------------------------------------

    def build_ttl_estimator(self) -> TTLEstimator:
        """Instantiate the configured TTL estimator (used by the server)."""
        return self.ttl_estimator.build(
            bounds=self.ttl_bounds,
            ttl_quantile=self.ttl_quantile,
            ewma_alpha=self.ewma_alpha,
        )
