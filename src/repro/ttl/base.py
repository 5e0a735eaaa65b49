"""Estimator interface and shared TTL bounds."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class TTLBounds:
    """Clamping range applied to every estimate.

    A minimum TTL keeps very hot keys cacheable at all (otherwise the
    estimator would effectively disable caching for them); a maximum TTL
    bounds how long a mis-estimated entry can pollute the Expiring Bloom
    Filter.
    """

    minimum: float = 1.0
    maximum: float = 3600.0

    def __post_init__(self) -> None:
        # Negated comparisons also reject NaN, which clamp() would pass through.
        if not self.minimum >= 0:
            raise ValueError("minimum TTL must be non-negative")
        if not self.maximum >= self.minimum:
            raise ValueError("maximum TTL must not be below the minimum")

    def clamp(self, ttl: float) -> float:
        """Clamp ``ttl`` into the configured range."""
        return min(self.maximum, max(self.minimum, ttl))


class TTLEstimator(abc.ABC):
    """Common interface of all TTL estimation strategies.

    The Quaestor server consults the estimator on every cacheable read or
    query and feeds observations back into it: writes (for write-rate
    sampling) and query invalidations (carrying the *actual* TTL, i.e. the
    time the result could have been cached until it was invalidated).
    """

    def __init__(self, bounds: TTLBounds | None = None) -> None:
        self.bounds = bounds if bounds is not None else TTLBounds()

    # -- estimation ------------------------------------------------------------------

    @abc.abstractmethod
    def estimate_record(self, record_key: str, now: float) -> float:
        """TTL for an individual record."""

    @abc.abstractmethod
    def estimate_query(
        self, query_key: str, member_record_keys: Sequence[str], now: float
    ) -> float:
        """TTL for a query result composed of ``member_record_keys``."""

    # -- observations -------------------------------------------------------------------

    def observe_write(self, record_key: str, timestamp: float) -> None:
        """A write to ``record_key`` was acknowledged at ``timestamp``."""

    def observe_query_invalidation(
        self, query_key: str, actual_ttl: float, timestamp: float
    ) -> None:
        """A cached query result was invalidated ``actual_ttl`` seconds after being read."""
