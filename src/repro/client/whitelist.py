"""Differential whitelisting of freshly revalidated keys.

Discrepancies between actual and estimated TTLs can keep a key in the Expiring
Bloom Filter for an extended period.  To avoid paying a revalidation for every
single access during that period, the client whitelists every key it has
revalidated since the last EBF refresh and treats it as fresh until the next
renewal (Section 3.3, "Client-side EBF Usage").
"""

from __future__ import annotations

from typing import Set


class DifferentialWhitelist:
    """Keys revalidated since the last EBF refresh."""

    def __init__(self) -> None:
        #: The whitelisted keys (read-only; hot paths test membership directly).
        self.fresh_keys: Set[str] = set()

    def add(self, key: str) -> None:
        """Mark ``key`` as revalidated (fresh until the next EBF renewal)."""
        self.fresh_keys.add(key)

    def __contains__(self, key: str) -> bool:
        return key in self.fresh_keys

    def reset(self) -> None:
        """Clear the whitelist (called whenever a new EBF copy arrives)."""
        self.fresh_keys.clear()

    def __len__(self) -> int:
        return len(self.fresh_keys)
