"""Quaestor's dual-strategy TTL estimator (Poisson initial + EWMA refinement)."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ttl.base import TTLBounds, TTLEstimator
from repro.ttl.ewma import EwmaTracker
from repro.ttl.poisson import combined_write_rate, poisson_quantile_ttl
from repro.ttl.write_rate import WriteRateSampler


class QuaestorTTLEstimator(TTLEstimator):
    """The paper's TTL estimation scheme.

    * **Records** always use the Poisson estimate derived from their sampled
      write rate.
    * **Queries** start from the Poisson estimate over the write rates of the
      records in the result set (the minimum-of-exponentials model) and are
      refined towards the observed actual TTL via an EWMA whenever the cached
      result is invalidated.

    Parameters
    ----------
    quantile:
        Probability ``p`` that the next write occurs before the TTL expires.
        A higher quantile yields longer TTLs (more cache hits, more
        invalidations); a lower quantile yields conservative TTLs.
    alpha:
        EWMA smoothing factor for query TTL refinement.
    use_expected_value:
        When ``True``, the expected time to the next write (``1 / lambda``) is
        used instead of the quantile, i.e. the observed mean TTL.
    """

    def __init__(
        self,
        quantile: float = 0.5,
        alpha: float = 0.7,
        bounds: Optional[TTLBounds] = None,
        sampler: Optional[WriteRateSampler] = None,
        use_expected_value: bool = False,
    ) -> None:
        super().__init__(bounds)
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must lie strictly between 0 and 1")
        self.quantile = quantile
        self.use_expected_value = use_expected_value
        self.sampler = sampler if sampler is not None else WriteRateSampler()
        self._query_ewma = EwmaTracker(alpha)

    # -- estimation -----------------------------------------------------------------

    def estimate_record(self, record_key: str, now: float) -> float:
        rate = self.sampler.write_rate(record_key, now)
        return self.bounds.clamp(self._poisson_ttl(rate))

    def estimate_query(
        self, query_key: str, member_record_keys: Sequence[str], now: float
    ) -> float:
        refined = self._query_ewma.get(query_key)
        if refined is not None:
            return self.bounds.clamp(refined)
        if member_record_keys:
            rates = [self.sampler.write_rate(key, now) for key in member_record_keys]
            estimate = self._poisson_ttl(combined_write_rate(rates))
        else:
            # Empty results change when a matching record is inserted; without
            # member rates the sampler's default rate is the best prior.
            estimate = self._poisson_ttl(self.sampler.default_rate)
        clamped = self.bounds.clamp(estimate)
        self._query_ewma.seed(query_key, clamped)
        return clamped

    # -- observations -----------------------------------------------------------------

    def observe_write(self, record_key: str, timestamp: float) -> None:
        self.sampler.observe_write(record_key, timestamp)

    def observe_query_invalidation(
        self, query_key: str, actual_ttl: float, timestamp: float
    ) -> None:
        """Blend the actual cacheable duration into the query's estimate."""
        self._query_ewma.update(query_key, max(0.0, actual_ttl))

    # -- internals -------------------------------------------------------------------------

    def _poisson_ttl(self, rate: float) -> float:
        if self.use_expected_value:
            return 1.0 / rate
        return poisson_quantile_ttl(rate, self.quantile)
