"""Real-time query subscriptions (the websocket alternative to EBF polling).

Section 3.2 of the paper: clients can directly subscribe to query result
change streams that are otherwise only used to construct the Expiring Bloom
Filter.  The application defines its critical data set through queries and
keeps it up to date in real time; this is preferable for applications with a
well-defined query scope, whereas complex applications profit from the EBF's
lower initial-load latency and backend resource usage.

This module implements that synchronisation scheme on top of InvaliDB's
notification stream: a :class:`QuerySubscription` maintains a live, locally
materialised result set and invokes user callbacks for every change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.db.documents import Document
from repro.db.query import Query, window_ids
from repro.errors import QuaestorError
from repro.invalidb.events import Notification, NotificationType

#: Callback signature: (event type, document id, current result snapshot).
SubscriptionListener = Callable[[NotificationType, str, List[Document]], None]


@dataclass
class SubscriptionEvent:
    """A recorded change delivered to a subscription."""

    type: NotificationType
    document_id: str
    timestamp: float


class QuerySubscription:
    """A live, self-maintaining query result.

    The subscription is created by :class:`SubscriptionManager`; it holds the
    materialised result set, applies InvaliDB notifications to it and notifies
    listeners after every change.  The documents it holds and hands out are
    the database's stored snapshots: shared and read-only.
    """

    def __init__(self, query: Query, initial_result: List[Document]) -> None:
        self.query = query
        self.query_key = query.cache_key
        self._documents: Dict[str, Document] = {
            str(document["_id"]): document for document in initial_result
        }
        self._listeners: List[SubscriptionListener] = []
        self.events: List[SubscriptionEvent] = []
        self.active = True

    # -- result access -------------------------------------------------------------------

    def result(self) -> List[Document]:
        """The current materialised result (ordered like the query demands)."""
        documents = self._documents
        return list(map(documents.__getitem__, window_ids(documents, documents, self.query)))

    def __len__(self) -> int:
        return len(self.result())

    # -- listeners ------------------------------------------------------------------------

    def on_change(self, listener: SubscriptionListener) -> None:
        """Register a callback invoked after every applied change."""
        self._listeners.append(listener)

    # -- internal: applying notifications ----------------------------------------------------

    def _apply(self, notification: Notification, document: Optional[Document]) -> None:
        if not self.active:
            return
        if notification.type in (NotificationType.ADD, NotificationType.CHANGE):
            if document is not None:
                self._documents[notification.document_id] = document
        elif notification.type is NotificationType.REMOVE:
            self._documents.pop(notification.document_id, None)
        # CHANGE_INDEX only affects ordering, which result() recomputes anyway.
        self.events.append(
            SubscriptionEvent(notification.type, notification.document_id, notification.timestamp)
        )
        snapshot = self.result()
        for listener in list(self._listeners):
            listener(notification.type, notification.document_id, snapshot)


class SubscriptionManager:
    """Client-side manager bridging a Quaestor server and query subscriptions.

    The manager registers each subscribed query with the server's InvaliDB
    cluster (through the normal query path, so TTL estimation and the active
    list stay consistent) and listens to the cluster's notification stream to
    keep all subscriptions up to date.
    """

    def __init__(self, server) -> None:
        self._server = server
        self._subscriptions: Dict[str, QuerySubscription] = {}
        self._unsubscribe = server.invalidb.subscribe(self._on_notification)

    def subscribe(self, query: Query) -> QuerySubscription:
        """Start maintaining ``query`` in real time; returns the live handle."""
        if query.cache_key in self._subscriptions:
            return self._subscriptions[query.cache_key]
        response = self._server.handle_query(query)
        body = response.body or {}
        documents = body.get("documents")
        if documents is None:
            # Id-list representation: materialise the documents directly.
            documents = self._server.database.find(query)
        subscription = QuerySubscription(query, documents)
        self._subscriptions[query.cache_key] = subscription
        return subscription

    def close(self) -> None:
        """Drop every subscription and detach from the notification stream."""
        for subscription in self._subscriptions.values():
            subscription.active = False
        self._subscriptions.clear()
        self._unsubscribe()

    # -- notification handling -------------------------------------------------------------------

    def _on_notification(self, notification: Notification) -> None:
        subscription = self._subscriptions.get(notification.query_key)
        if subscription is None:
            return
        document: Optional[Document] = None
        if notification.type in (NotificationType.ADD, NotificationType.CHANGE):
            try:
                document = self._server.database.get(
                    notification.query.collection, notification.document_id
                )
            except QuaestorError:
                document = None
        subscription._apply(notification, document)
