"""Exponentially weighted moving averages for per-query TTL refinement."""

from __future__ import annotations

from typing import Dict, Optional


class EwmaTracker:
    """Tracks one EWMA value per key.

    Quaestor refines a query's TTL whenever the cached result is invalidated:
    ``ttl_new = alpha * ttl_old + (1 - alpha) * ttl_actual`` (Equation 2),
    where ``ttl_actual`` is the time the result was actually cacheable.
    """

    def __init__(self, alpha: float = 0.7) -> None:
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        self.alpha = alpha
        self._values: Dict[str, float] = {}

    def update(self, key: str, observation: float) -> float:
        """Fold ``observation`` into the moving average for ``key``."""
        if observation < 0:
            raise ValueError("observation must be non-negative")
        current = self._values.get(key)
        if current is None:
            updated = observation
        else:
            updated = self.alpha * current + (1.0 - self.alpha) * observation
        self._values[key] = updated
        return updated

    def seed(self, key: str, value: float) -> None:
        """Initialise the average without applying the blending formula."""
        if value < 0:
            raise ValueError("value must be non-negative")
        self._values.setdefault(key, value)

    def get(self, key: str) -> Optional[float]:
        """Current average for ``key``, or ``None`` if never observed."""
        return self._values.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return len(self._values)
