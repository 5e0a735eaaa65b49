"""Two-dimensional workload distribution: query x object partitioning.

InvaliDB hash-partitions both the set of active queries and the stream of
incoming after-images, orthogonally to one another (Figure 6).  A node at grid
position ``(q, o)`` is responsible for the queries of query partition ``q``
restricted to the records of object partition ``o``:

* a newly registered query is forwarded to all nodes of its query partition
  (one per object partition), and
* an incoming after-image is forwarded to all nodes of its object partition
  (one per query partition).

Thus every (query, record) pair is evaluated by exactly one node, and neither
the number of active queries nor the update throughput nor the result-set
size of a single query limits single-node capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.bloom.hashing import stable_uint64
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PartitioningScheme:
    """Grid geometry: ``query_partitions x object_partitions`` matching nodes."""

    query_partitions: int
    object_partitions: int

    def __post_init__(self) -> None:
        if self.query_partitions <= 0:
            raise ConfigurationError("query_partitions must be positive")
        if self.object_partitions <= 0:
            raise ConfigurationError("object_partitions must be positive")

    @classmethod
    def for_nodes(cls, matching_nodes: int) -> "PartitioningScheme":
        """A sensible near-square grid for ``matching_nodes`` nodes.

        The factorisation with the most balanced sides is chosen; prime node
        counts degenerate to a single object partition, matching the paper's
        observation that query partitioning alone suffices as long as a single
        node can handle each individual query.
        """
        if matching_nodes <= 0:
            raise ConfigurationError("matching_nodes must be positive")
        best: Tuple[int, int] = (matching_nodes, 1)
        for query_partitions in range(1, matching_nodes + 1):
            if matching_nodes % query_partitions == 0:
                object_partitions = matching_nodes // query_partitions
                if abs(query_partitions - object_partitions) <= abs(best[0] - best[1]):
                    best = (query_partitions, object_partitions)
        return cls(query_partitions=best[0], object_partitions=best[1])

    # -- placement -----------------------------------------------------------------

    @property
    def total_nodes(self) -> int:
        return self.query_partitions * self.object_partitions

    def query_partition(self, query_key: str) -> int:
        """Query partition responsible for ``query_key``."""
        return stable_uint64(query_key) % self.query_partitions

    def object_partition(self, document_id: str) -> int:
        """Object partition responsible for ``document_id``."""
        if self.object_partitions == 1:
            return 0
        return stable_uint64(f"obj:{document_id}") % self.object_partitions

    def node_index(self, query_partition: int, object_partition: int) -> int:
        """Linear node index of grid cell ``(query_partition, object_partition)``."""
        if not 0 <= query_partition < self.query_partitions:
            raise ConfigurationError(f"query partition {query_partition} out of range")
        if not 0 <= object_partition < self.object_partitions:
            raise ConfigurationError(f"object partition {object_partition} out of range")
        return query_partition * self.object_partitions + object_partition

    def nodes_for_query(self, query_key: str) -> List[int]:
        """All node indexes a new query registration is forwarded to."""
        query_partition = self.query_partition(query_key)
        return [
            self.node_index(query_partition, object_partition)
            for object_partition in range(self.object_partitions)
        ]

    def nodes_for_document(self, document_id: str) -> List[int]:
        """All node indexes an incoming after-image is forwarded to."""
        object_partition = self.object_partition(document_id)
        return [
            self.node_index(query_partition, object_partition)
            for query_partition in range(self.query_partitions)
        ]

    def member_filter(self, object_partition: int):
        """Predicate restricting a node's match state to its object partition
        (``None`` when there is only one: it holds every document)."""
        if self.object_partitions == 1:
            return None

        def _filter(document_id: str) -> bool:
            return self.object_partition(document_id) == object_partition

        return _filter
