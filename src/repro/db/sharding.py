"""Consistent-hash placement of record keys over shard servers.

The paper's MongoDB cluster shards documents through their hashed primary
key.  :class:`ConsistentHashRing` is the reproduction's placement function:
a consistent-hash ring with virtual nodes, on which the
:class:`~repro.cluster.ShardRouter` places record keys onto whole Quaestor
deployments (shards).  A ring keeps almost all key placements stable when
shards are added or removed, which modulo placement does not.

:class:`ShardStatisticsTable` keeps the router's per-shard read/write
counters and the max/mean imbalance ratio the cluster metrics report.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bloom.hashing import mixed_uint64

#: Keys the ring's placement memo holds before it starts over.
PLACEMENT_MEMO_SIZE = 1 << 16


@dataclass
class ShardStatistics:
    """Operation counters for a single shard."""

    shard_id: int
    reads: int = 0
    writes: int = 0

    @property
    def operations(self) -> int:
        return self.reads + self.writes


class ShardStatisticsTable:
    """Per-shard operation counters with the max/mean imbalance ratio.

    The bookkeeping behind :class:`~repro.cluster.router.ShardRouter`'s
    routing statistics and the cluster's placement-imbalance figure.
    """

    def __init__(self, shard_ids: Iterable[int] = ()) -> None:
        self._statistics: Dict[int, ShardStatistics] = {}
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    def add_shard(self, shard_id: int) -> None:
        """Start (or restart) tracking ``shard_id`` with fresh counters.

        A re-added shard must not inherit pre-removal traffic: that would
        skew the imbalance ratio against it.
        """
        self._statistics[shard_id] = ShardStatistics(shard_id)

    def record_read(self, shard_id: int, count: int = 1) -> None:
        self._statistics[shard_id].reads += count

    def record_write(self, shard_id: int, count: int = 1) -> None:
        self._statistics[shard_id].writes += count

    def statistics(self, shard_ids: Optional[Iterable[int]] = None) -> List[ShardStatistics]:
        """Counters for ``shard_ids`` (default: every tracked shard, ordered)."""
        ids = list(shard_ids) if shard_ids is not None else sorted(self._statistics)
        return [self._statistics[shard_id] for shard_id in ids]

    def imbalance(self, shard_ids: Optional[Iterable[int]] = None) -> float:
        """Max/mean operation ratio across shards (1.0 = perfectly balanced)."""
        counts = [stats.operations for stats in self.statistics(shard_ids)]
        total = sum(counts)
        if total == 0 or not counts:
            return 1.0
        mean = total / len(counts)
        return max(counts) / mean if mean else 1.0

    def __len__(self) -> int:
        return len(self._statistics)

    def __repr__(self) -> str:
        return (
            f"ShardStatisticsTable(shards={len(self._statistics)}, "
            f"imbalance={self.imbalance():.3f})"
        )


class ConsistentHashRing:
    """A consistent-hash ring mapping string keys onto shard ids.

    Each shard is represented by ``replicas`` virtual nodes (points on the
    ring), which evens out the arc lengths owned by each shard.  A key is
    placed on the first virtual node at or after its own hash position
    (wrapping around), so adding or removing one shard only moves the keys
    whose arcs that shard owned -- roughly ``1/num_shards`` of them -- while
    every other placement stays stable.

    Placements are memoised per key: a request resolves its shard once and
    every later lookup of the same key (routing statistics, capacity and
    latency pricing) is one dict probe instead of a hash and a bisection.
    The memo is emptied whenever the ring's membership changes and when it
    reaches :data:`PLACEMENT_MEMO_SIZE` keys, so it never answers for a
    ring that no longer exists and never grows without bound.
    """

    def __init__(self, shard_ids: Iterable[int] = (), replicas: int = 64) -> None:
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        self.replicas = int(replicas)
        self._shards: set = set()
        #: Sorted ring points as ``(position, shard_id)`` pairs.
        self._ring: List[Tuple[int, int]] = []
        self._placements: Dict[str, int] = {}
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    # -- membership -----------------------------------------------------------------

    def add_shard(self, shard_id: int) -> None:
        """Add ``shard_id``'s virtual nodes to the ring (idempotent)."""
        if shard_id in self._shards:
            return
        self._shards.add(shard_id)
        self._placements.clear()
        for replica in range(self.replicas):
            position = mixed_uint64(f"shard:{shard_id}:vnode:{replica}")
            bisect.insort(self._ring, (position, shard_id))

    def shard_ids(self) -> List[int]:
        """All shard ids on the ring, sorted."""
        return sorted(self._shards)

    def __contains__(self, shard_id: int) -> bool:
        return shard_id in self._shards

    def __len__(self) -> int:
        return len(self._shards)

    # -- placement -------------------------------------------------------------------

    def shard_for(self, key: str) -> int:
        """The shard owning ``key``: first virtual node clockwise of its hash."""
        shard_id = self._placements.get(key)
        if shard_id is not None:
            return shard_id
        ring = self._ring
        if not ring:
            raise ValueError("cannot place keys on an empty ring")
        index = bisect.bisect_left(ring, (mixed_uint64(key), -1))
        shard_id = ring[index][1] if index < len(ring) else ring[0][1]
        placements = self._placements
        if len(placements) >= PLACEMENT_MEMO_SIZE:
            placements.clear()
        placements[key] = shard_id
        return shard_id

    def __repr__(self) -> str:
        return f"ConsistentHashRing(shards={len(self._shards)}, replicas={self.replicas})"
