"""Consistency levels offered by Quaestor (Figure 4 in the paper).

Always provided (no opt-in needed):

* **Delta-atomicity** -- staleness never exceeds Delta, controlled by the age
  (refresh interval) of the client's Expiring Bloom Filter copy.
* **Monotonic writes** -- guaranteed by the underlying database.
* **Read-your-writes** and **monotonic reads** -- achieved client-side by
  caching own writes and the most recently seen versions.

Available per operation as an opt-in (with a performance penalty):

* **Causal consistency** -- given if the read timestamp is older than the EBF;
  otherwise subsequent reads are promoted to revalidations until the EBF is
  refreshed.
* **Strong consistency (linearizability)** -- explicit revalidation, i.e. a
  cache miss at every level.
"""

from __future__ import annotations

import enum


class ConsistencyLevel(str, enum.Enum):
    """Per-session (or per-operation) consistency choice."""

    #: Default: bounded staleness governed by the EBF refresh interval.
    DELTA_ATOMIC = "delta-atomic"
    #: Causally related operations are observed in order.
    CAUSAL = "causal"
    #: Linearizable reads: every read bypasses all caches.
    STRONG = "strong"

    @property
    def allows_replica_reads(self) -> bool:
        """Whether a lagging replica may serve reads at this level.

        STRONG must observe the primary's latest state, so it never uses a
        replica.  DELTA_ATOMIC accepts bounded staleness by definition, and
        CAUSAL may use a replica whose apply watermark has caught up to the
        session's causal frontier (the replication layer checks the
        watermark; this property only rules the level in or out).
        """
        return self is not ConsistencyLevel.STRONG
