"""Notification events emitted by the invalidation pipeline."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.db.query import Query


class NotificationType(str, enum.Enum):
    """The event kinds InvaliDB can notify subscribers about (Figure 5)."""

    #: An object enters a result set.
    ADD = "add"
    #: An object already contained in a result set is updated without
    #: altering its match status.
    CHANGE = "change"
    #: An object leaves a result set.
    REMOVE = "remove"
    #: A sorted query's result permutation changed (positional change).
    CHANGE_INDEX = "changeIndex"


@dataclass(slots=True)
class Notification:
    """A single query-invalidation notification (by convention never reassigned)."""

    query_key: str
    query: Query
    type: NotificationType
    document_id: str
    timestamp: float
    #: New position of the document for CHANGE_INDEX events (``None`` otherwise).
    new_index: Optional[int] = None

    def invalidates_id_list(self) -> bool:
        """Whether an id-list representation of the result becomes stale.

        Id-lists only contain the matching ids, so only membership or order
        changes invalidate them; pure ``change`` events do not.
        """
        return self.type in (
            NotificationType.ADD,
            NotificationType.REMOVE,
            NotificationType.CHANGE_INDEX,
        )
