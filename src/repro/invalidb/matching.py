"""Per-query match-state tracking and notification derivation.

For every registered query, InvaliDB has to know the *former* matching status
of each record to decide between add, change and remove notifications when an
after-image arrives.  Stateless queries only need that per-record boolean;
stateful queries (ORDER BY / LIMIT / OFFSET) additionally maintain the ordered
result via :class:`repro.invalidb.stateful.OrderedResultState`.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.db.changestream import ChangeEvent, OperationType
from repro.db.documents import Document
from repro.db.query import Query
from repro.invalidb.events import Notification, NotificationType
from repro.invalidb.stateful import OrderedResultState, window_diff


class QueryMatchState:
    """Matching state of one registered query (scoped to one object partition).

    Parameters
    ----------
    query:
        The registered query.
    member_filter:
        Optional predicate restricting which document ids this instance is
        responsible for -- the object-partitioning hook.  Events for documents
        outside the partition are ignored by this instance (another node's
        instance handles them).
    """

    def __init__(self, query: Query, member_filter=None) -> None:
        self.query = query
        self.query_key = query.cache_key
        self._matches = query.plan.matches
        self._member_filter = member_filter
        self._matching_ids: Set[str] = set()
        self._ordered: Optional[OrderedResultState] = (
            OrderedResultState(query) if query.is_stateful else None
        )
        self.events_processed = 0
        self.notifications_emitted = 0

    # -- bootstrap -------------------------------------------------------------------

    def initialize(self, initial_result: List[Document]) -> None:
        """Seed the state with the initial result set evaluated by Quaestor."""
        responsible = self._member_filter
        relevant = [
            document
            for document in initial_result
            if responsible is None or responsible(str(document["_id"]))
        ]
        self._matching_ids = {str(document["_id"]) for document in relevant}
        if self._ordered is not None:
            self._ordered.initialize(relevant)

    # -- matching ---------------------------------------------------------------------

    def process(self, event: ChangeEvent) -> List[Notification]:
        """Match one change event; returns the notifications it triggers.

        A stateless query decides here, in this frame: ``add`` when the
        document starts matching, ``remove`` when it stops, ``change`` when a
        member's content changed.  A stateful one diffs its visible window.
        """
        document_id = event.document_id
        if event.collection != self.query.collection:
            return []
        member_filter = self._member_filter
        if member_filter is not None and not member_filter(document_id):
            return []
        self.events_processed += 1

        matching_ids = self._matching_ids
        was_match = document_id in matching_ids
        after = event.after
        is_match = (
            after is not None
            and event.operation is not OperationType.DELETE
            and self._matches(after)
        )

        if self._ordered is not None:
            notifications = self._process_stateful(event, was_match, is_match)
            self.notifications_emitted += len(notifications)
            return notifications
        if is_match:
            if not was_match:
                matching_ids.add(document_id)
                notification_type = NotificationType.ADD
            elif event.before != after:
                notification_type = NotificationType.CHANGE
            else:
                return []
        elif was_match:
            matching_ids.discard(document_id)
            notification_type = NotificationType.REMOVE
        else:
            return []
        self.notifications_emitted += 1
        return [
            Notification(self.query_key, self.query, notification_type, document_id, event.timestamp)
        ]

    # -- stateful path -------------------------------------------------------------------

    def _process_stateful(
        self, event: ChangeEvent, was_match: bool, is_match: bool
    ) -> List[Notification]:
        assert self._ordered is not None
        window_before = self._ordered.window_ids()

        if is_match:
            self._matching_ids.add(event.document_id)
            self._ordered.apply_match(event.document_id, event.after or {})
        else:
            self._matching_ids.discard(event.document_id)
            self._ordered.apply_unmatch(event.document_id)

        window_after = self._ordered.window_ids()
        notifications: List[Notification] = []

        entered, left, moved = window_diff(window_before, window_after)
        for document_id in entered:
            notifications.append(
                self._notification(NotificationType.ADD, event, document_id=document_id)
            )
        for document_id in left:
            notifications.append(
                self._notification(NotificationType.REMOVE, event, document_id=document_id)
            )
        for document_id, new_index in moved:
            notifications.append(
                self._notification(
                    NotificationType.CHANGE_INDEX,
                    event,
                    document_id=document_id,
                    new_index=new_index,
                )
            )
        # A pure content change of a record visible in the window.
        if (
            was_match
            and is_match
            and event.document_id in window_after
            and event.document_id not in entered
            and event.before != event.after
        ):
            notifications.append(self._notification(NotificationType.CHANGE, event))
        return notifications

    # -- helpers --------------------------------------------------------------------------

    def _notification(
        self,
        notification_type: NotificationType,
        event: ChangeEvent,
        document_id: Optional[str] = None,
        new_index: Optional[int] = None,
    ) -> Notification:
        return Notification(
            query_key=self.query_key,
            query=self.query,
            type=notification_type,
            document_id=document_id if document_id is not None else event.document_id,
            timestamp=event.timestamp,
            new_index=new_index,
        )

    # -- introspection -----------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"QueryMatchState(query={self.query_key[:40]!r}..., "
            f"matching={len(self._matching_ids)}, stateful={self.query.is_stateful})"
        )
