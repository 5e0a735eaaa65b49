"""Ingestion tasks: pulling query activations and after-images from queues.

The paper connects Quaestor servers and the InvaliDB cluster through message
queues (hosted on Redis): *query ingestion* pulls new query activations,
*changestream ingestion* pulls write operations with their
after-images.  Both tasks forward what they pull according to the grid's
partitioning scheme; here they forward into an :class:`InvaliDBCluster`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.db.changestream import ChangeEvent
from repro.db.documents import Document
from repro.db.query import Query
from repro.invalidb.cluster import InvaliDBCluster
from repro.invalidb.events import Notification
from repro.kvstore.queues import MessageQueue


@dataclass(frozen=True)
class QueryActivation:
    """A request to start matching a query (carries the initial result set)."""

    query: Query
    initial_result: List[Document]


class QueryIngestionTask:
    """Drains the query activation queue into the cluster."""

    def __init__(self, queue: MessageQueue, cluster: InvaliDBCluster) -> None:
        self.queue = queue
        self.cluster = cluster
        self.activations = 0

    def run_once(self, max_items: Optional[int] = None) -> int:
        """Process up to ``max_items`` queued items; returns how many were handled."""
        items = self.queue.drain(max_items)
        for item in items:
            if isinstance(item, QueryActivation):
                self.cluster.register_query(item.query, item.initial_result)
                self.activations += 1
            else:
                raise TypeError(f"unexpected item on query queue: {type(item).__name__}")
        return len(items)


class ChangestreamIngestionTask:
    """Drains the after-image queue into the cluster and collects notifications."""

    def __init__(self, queue: MessageQueue, cluster: InvaliDBCluster) -> None:
        self.queue = queue
        self.cluster = cluster
        self.events_forwarded = 0

    def run_once(self, max_items: Optional[int] = None) -> List[Notification]:
        """Process up to ``max_items`` queued change events."""
        items = self.queue.drain(max_items)
        process_event = self.cluster.process_event
        notifications: List[Notification] = []
        for item in items:
            if item.__class__ is not ChangeEvent:
                raise TypeError(f"unexpected item on changestream queue: {type(item).__name__}")
            notifications += process_event(item)
        self.events_forwarded += len(items)
        return notifications


class InvaliDBFrontend:
    """Queue-based facade bundling both ingestion tasks.

    The Quaestor server talks to this facade exactly like it would talk to the
    Redis queues in the paper's deployment; :meth:`pump` plays the role of the
    Storm workers pulling from the queues.
    """

    def __init__(self, cluster: InvaliDBCluster, queue_capacity: Optional[int] = None) -> None:
        self.cluster = cluster
        self.query_queue = MessageQueue("invalidb:queries", capacity=queue_capacity)
        self.change_queue = MessageQueue("invalidb:changes", capacity=queue_capacity)
        self._query_task = QueryIngestionTask(self.query_queue, cluster)
        self._change_task = ChangestreamIngestionTask(self.change_queue, cluster)
        #: Producer side, change events: ``submit_change(event) -> accepted``
        #: is the change queue's ``offer`` itself (one frame per stage).
        self.submit_change = self.change_queue.offer

    # -- producer side (Quaestor server) ----------------------------------------------

    def submit_activation(self, query: Query, initial_result: List[Document]) -> bool:
        return self.query_queue.offer(QueryActivation(query, initial_result))

    # -- consumer side (the cluster's workers) -------------------------------------------

    def pump(self, max_items: Optional[int] = None) -> List[Notification]:
        """Process pending activations first, then pending change events."""
        if self.query_queue:
            self._query_task.run_once(max_items)
        return self._change_task.run_once(max_items)
