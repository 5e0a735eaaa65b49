"""The InvaliDB cluster: matching nodes, capacity model and notification fan-out."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.db.changestream import ChangeEvent
from repro.db.documents import Document
from repro.db.query import Query
from repro.invalidb.events import Notification
from repro.invalidb.index import QueryStateIndex
from repro.invalidb.matching import QueryMatchState
from repro.invalidb.partitioning import PartitioningScheme

NotificationHandler = Callable[[Notification], None]


@dataclass(frozen=True)
class NodeCapacityModel:
    """Latency/throughput model of a single matching node.

    Calibrated against the paper's measurements (Section 6.3): nodes sustain
    roughly five million matching operations per second; 99th-percentile
    notification latency stays below ~20 ms up to about three million ops/s
    and rises sharply towards the capacity limit.
    """

    #: Matching operations (query evaluations) per second at saturation.
    max_ops_per_second: float = 5_000_000.0
    #: Notification latency floor in seconds (queue-empty case).
    base_latency: float = 0.010
    #: Queueing sensitivity: how quickly latency grows with utilisation.
    latency_spread: float = 0.0025

    def sustainable_ops(self, latency_bound: float) -> float:
        """Maximum per-node ops/s whose p99 latency stays within ``latency_bound``."""
        if latency_bound <= self.base_latency:
            return 0.0
        slack = latency_bound - self.base_latency
        max_utilisation = slack / (slack + self.latency_spread)
        return max_utilisation * self.max_ops_per_second


class InvaliDBNode:
    """One matching-task instance: a grid cell of the partitioning scheme."""

    def __init__(
        self,
        node_index: int,
        query_partition: int,
        object_partition: int,
        scheme: PartitioningScheme,
        capacity_model: NodeCapacityModel,
    ) -> None:
        self.node_index = node_index
        self.query_partition = query_partition
        self.object_partition = object_partition
        self._scheme = scheme
        self.capacity_model = capacity_model
        self._index = QueryStateIndex()
        self.match_operations = 0

    # -- query lifecycle -------------------------------------------------------------

    def register(self, query: Query, initial_result: List[Document]) -> QueryMatchState:
        """Install ``query`` on this node, seeded with its initial result."""
        state = QueryMatchState(
            query, member_filter=self._scheme.member_filter(self.object_partition)
        )
        state.initialize(initial_result)
        self._index.register(query, state)
        return state

    # -- matching ----------------------------------------------------------------------

    def process(self, event: ChangeEvent) -> List[Notification]:
        """Match ``event`` against the candidate queries registered on this node.

        The :class:`~repro.invalidb.index.QueryStateIndex` narrows the event
        to the states whose collection (and, for equality predicates, whose
        indexed attribute value) could react; each candidate still runs its
        full predicate, so the emitted notifications are identical to a scan
        over every registered state.  ``match_operations`` counts
        the query evaluations actually performed.
        """
        candidates = self._index.candidates(event)
        if not candidates:
            return candidates
        self.match_operations += len(candidates)
        notifications: List[Notification] = []
        for state in candidates:
            notifications += state.process(event)
        return notifications

    def __repr__(self) -> str:
        return (
            f"InvaliDBNode(index={self.node_index}, qp={self.query_partition}, "
            f"op={self.object_partition}, queries={len(self._index)})"
        )


class InvaliDBCluster:
    """The full matching grid plus the order-maintenance layer.

    Stateless queries are spread over the two-dimensional grid; stateful
    queries (ORDER BY / LIMIT / OFFSET) are handled by a separate processing
    layer partitioned by query only, because their state cannot be split along
    the object dimension (Section 4.1, "Managing Query State").
    """

    def __init__(self, matching_nodes: int = 1) -> None:
        self.scheme = PartitioningScheme.for_nodes(matching_nodes)
        self.capacity_model = NodeCapacityModel()
        self.nodes: List[InvaliDBNode] = []
        for query_partition in range(self.scheme.query_partitions):
            for object_partition in range(self.scheme.object_partitions):
                node_index = self.scheme.node_index(query_partition, object_partition)
                self.nodes.append(
                    InvaliDBNode(
                        node_index,
                        query_partition,
                        object_partition,
                        self.scheme,
                        self.capacity_model,
                    )
                )
        #: Object partition -> the nodes an after-image of it is forwarded to.
        self._partition_nodes: List[List[InvaliDBNode]] = [
            [node for node in self.nodes if node.object_partition == partition]
            for partition in range(self.scheme.object_partitions)
        ]
        # Order-maintenance layer for stateful queries, partitioned by query.
        self._stateful_states = QueryStateIndex()
        self._stateful_home_node: Dict[str, int] = {}
        self._registered: Dict[str, Query] = {}
        self._handlers: List[NotificationHandler] = []

    # -- subscriptions ------------------------------------------------------------------

    def subscribe(self, handler: NotificationHandler) -> Callable[[], None]:
        """Register a notification handler; returns an unsubscribe callable."""
        self._handlers.append(handler)

        def _unsubscribe() -> None:
            if handler in self._handlers:
                self._handlers.remove(handler)

        return _unsubscribe

    # -- query lifecycle ------------------------------------------------------------------

    def register_query(self, query: Query, initial_result: List[Document]) -> None:
        """Activate ``query`` for invalidation detection.

        The query must have been evaluated on Quaestor first; ``initial_result``
        seeds the matching state so the very first relevant update already
        produces the correct notification type.
        """
        # Re-registration refreshes the initial state: the indexes replace a
        # registered key's state in place.
        self._registered[query.cache_key] = query
        if query.is_stateful:
            state = QueryMatchState(query)
            state.initialize(initial_result)
            self._stateful_states.register(query, state)
            # For cost accounting the query is "homed" on one grid node.
            home = self.scheme.node_index(
                self.scheme.query_partition(query.cache_key), 0
            )
            self._stateful_home_node[query.cache_key] = home
            return
        for node_index in self.scheme.nodes_for_query(query.cache_key):
            self.nodes[node_index].register(query, initial_result)

    def is_registered(self, query_key: str) -> bool:
        return query_key in self._registered

    @property
    def active_queries(self) -> int:
        return len(self._registered)

    # -- matching -----------------------------------------------------------------------------

    def process_event(self, event: ChangeEvent) -> List[Notification]:
        """Match one after-image against the candidate registered queries.

        Candidate pruning (per-collection and per-attribute-value indexes,
        see :mod:`repro.invalidb.index`) narrows the fan-out; the emitted
        notification stream is identical to evaluating every registered
        query.
        """
        notifications: List[Notification] = []
        for node in self._partition_nodes[self.scheme.object_partition(event.document_id)]:
            notifications += node.process(event)
        if self._stateful_home_node:  # any stateful query registered at all
            for state in self._stateful_states.candidates(event):
                notifications += state.process(event)
        for notification in notifications:
            for handler in self._handlers:
                handler(notification)
        return notifications

    # -- capacity and latency ----------------------------------------------------------------

    def sustainable_throughput(self, latency_bound: float) -> float:
        """Cluster-wide matching ops/s sustainable under ``latency_bound``.

        Scales linearly with the number of matching nodes, the headline result
        of Figure 12.
        """
        per_node = self.capacity_model.sustainable_ops(latency_bound)
        return per_node * len(self.nodes)

    def __repr__(self) -> str:
        return (
            f"InvaliDBCluster(nodes={len(self.nodes)}, "
            f"scheme={self.scheme.query_partitions}x{self.scheme.object_partitions}, "
            f"queries={self.active_queries})"
        )
