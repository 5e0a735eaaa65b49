"""Poisson-model TTL: quantile of the time to the next write.

For a Poisson write process with rate ``lambda``, inter-arrival times are
exponentially distributed.  A query result over records with write rates
``lambda_1 .. lambda_n`` changes when the *first* of them is written, and the
minimum of independent exponentials is again exponential with rate
``lambda_min = lambda_1 + ... + lambda_n``.  The TTL with probability ``p`` of
seeing a write before expiration is the quantile ``-ln(1 - p) / lambda_min``
(Equation 1 in the paper).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.ttl.base import TTLBounds, TTLEstimator
from repro.ttl.write_rate import WriteRateSampler


def poisson_quantile_ttl(write_rate: float, quantile: float) -> float:
    """TTL such that the next write occurs before expiry with probability ``quantile``."""
    if write_rate <= 0:
        raise ValueError("write_rate must be positive")
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must lie strictly between 0 and 1")
    return -math.log(1.0 - quantile) / write_rate


def combined_write_rate(write_rates: Sequence[float]) -> float:
    """Rate of the minimum of independent exponentials (sum of the rates)."""
    if not write_rates:
        raise ValueError("at least one write rate is required")
    if any(rate <= 0 for rate in write_rates):
        raise ValueError("write rates must be positive")
    return float(sum(write_rates))


def query_result_ttl(write_rates: Sequence[float], quantile: float) -> float:
    """Quantile TTL for a query result given its members' write rates."""
    return poisson_quantile_ttl(combined_write_rate(write_rates), quantile)


class PoissonTTLEstimator(TTLEstimator):
    """Pure Poisson-quantile TTLs from sampled write rates.

    The initial-estimate half of Quaestor's dual strategy on its own: records
    and queries both read their TTL off the exponential quantile function for
    the sampled (or combined) write rate, and query estimates are *never*
    refined from observed invalidations.  The bake-off uses it to isolate how
    much the EWMA feedback loop adds on top of the stochastic model.
    """

    def __init__(
        self,
        quantile: float = 0.5,
        bounds: Optional[TTLBounds] = None,
        sampler: Optional[WriteRateSampler] = None,
    ) -> None:
        super().__init__(bounds)
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must lie strictly between 0 and 1")
        self.quantile = quantile
        self.sampler = sampler if sampler is not None else WriteRateSampler()

    def estimate_record(self, record_key: str, now: float) -> float:
        rate = self.sampler.write_rate(record_key, now)
        return self.bounds.clamp(poisson_quantile_ttl(rate, self.quantile))

    def estimate_query(
        self, query_key: str, member_record_keys: Sequence[str], now: float
    ) -> float:
        if member_record_keys:
            rates = [self.sampler.write_rate(key, now) for key in member_record_keys]
            return self.bounds.clamp(query_result_ttl(rates, self.quantile))
        return self.bounds.clamp(poisson_quantile_ttl(self.sampler.default_rate, self.quantile))

    def observe_write(self, record_key: str, timestamp: float) -> None:
        self.sampler.observe_write(record_key, timestamp)
