"""Freshness policies: when the client refreshes its Expiring Bloom Filter.

The basic policy fetches the EBF at page load (*cached initialization*) and
refreshes it every ``Delta`` seconds in a non-disruptive fashion: the first
query after ``Delta`` seconds is promoted to a revalidation that piggybacks an
up-to-date EBF.  The chosen interval is exactly the Delta of the resulting
Delta-atomicity guarantee.
"""

from __future__ import annotations

import math
from typing import Optional


class FreshnessPolicy:
    """Controls the age of the client's EBF copy."""

    def __init__(self, refresh_interval: float = 10.0) -> None:
        # A NaN or infinite interval never comes due: refreshes would stop
        # and staleness would be unbounded.
        if not (refresh_interval > 0 and math.isfinite(refresh_interval)):
            raise ValueError("refresh_interval must be positive and finite")
        self.refresh_interval = refresh_interval
        self._last_refresh: Optional[float] = None

    def mark_refreshed(self, timestamp: float) -> None:
        """Record that a fresh EBF copy was obtained at ``timestamp``."""
        self._last_refresh = timestamp

    def needs_refresh(self, now: float) -> bool:
        """Whether the EBF copy is older than the refresh interval."""
        if self._last_refresh is None:
            return True
        return (now - self._last_refresh) >= self.refresh_interval

    def __repr__(self) -> str:
        return f"FreshnessPolicy(refresh_interval={self.refresh_interval})"
