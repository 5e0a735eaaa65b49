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
from typing import Sequence


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

