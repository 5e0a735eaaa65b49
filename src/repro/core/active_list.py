"""The active list: all queries currently cached (and matched by InvaliDB).

The active list is the shared data structure holding, per cached query, its
current TTL estimate, the time of its last read (needed to compute the actual
TTL when the result is invalidated), its result size and its chosen
representation.  The paper keeps it in a partitioned Redis structure shared by
all Quaestor servers; this reproduction keeps it in-process but offers the
same interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.representation import ResultRepresentation
from repro.db.query import Query


@dataclass
class ActiveQueryEntry:
    """Book-keeping for one actively cached query."""

    query: Query
    query_key: str
    last_read_time: float
    current_ttl: float
    result_size: int
    representation: ResultRepresentation
    reads: int = 1
    invalidations: int = 0

    def record_read(self, timestamp: float, ttl: float, result_size: int) -> None:
        self.last_read_time = timestamp
        self.current_ttl = ttl
        self.result_size = result_size
        self.reads += 1

    def actual_ttl(self, invalidation_time: float) -> float:
        """Time the cached result actually survived until this invalidation."""
        return max(0.0, invalidation_time - self.last_read_time)


class ActiveList:
    """Registry of actively cached queries."""

    def __init__(self) -> None:
        self._entries: Dict[str, ActiveQueryEntry] = {}

    def record_read(
        self,
        query: Query,
        timestamp: float,
        ttl: float,
        result_size: int,
        representation: ResultRepresentation,
    ) -> ActiveQueryEntry:
        """Record that ``query`` was just served and cached with ``ttl``."""
        entry = self._entries.get(query.cache_key)
        if entry is None:
            entry = ActiveQueryEntry(
                query=query,
                query_key=query.cache_key,
                last_read_time=timestamp,
                current_ttl=ttl,
                result_size=result_size,
                representation=representation,
            )
            self._entries[query.cache_key] = entry
        else:
            entry.record_read(timestamp, ttl, result_size)
            entry.representation = representation
        return entry

    def record_invalidation(self, query_key: str, timestamp: float) -> Optional[float]:
        """Record an invalidation; returns the actual TTL or ``None`` if unknown."""
        entry = self._entries.get(query_key)
        if entry is None:
            return None
        entry.invalidations += 1
        return entry.actual_ttl(timestamp)

    def get(self, query_key: str) -> Optional[ActiveQueryEntry]:
        return self._entries.get(query_key)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, query_key: str) -> bool:
        return query_key in self._entries
