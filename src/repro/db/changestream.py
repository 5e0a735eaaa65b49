"""Change stream: ordered after-images of every write operation.

The stream has two consumers.  InvaliDB continuously matches record
after-images against registered queries: the database publishes a
:class:`ChangeEvent` for every insert, update and delete, carrying both
before- and after-images so the matcher can decide between *add*, *change*
and *remove* notifications.  The replication layer
(:mod:`repro.replication`) subscribes to the same stream as its shipping
log: every event is fanned out to the shard's replicas and applied after a
modelled lag, which keeps replica version sequences in lock-step with the
primary because the stream is totally ordered.

A stream keeps a history of its events only once asked to
(:meth:`ChangeStream.retain_history`).  A replica group with replicas asks
for its primary's database and every database it seeds, because failover
replays the deposed primary's stream; a single server, or a shard without
replicas, never replays anything and keeps nothing.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from repro.db.documents import Document
from repro.errors import ConfigurationError

#: Change events a retaining change stream keeps in its history.
CHANGE_HISTORY_LIMIT = 100_000


class OperationType(str, enum.Enum):
    """Write operation categories producing change events."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(slots=True)
class ChangeEvent:
    """A single entry of the database change stream.

    Built once per write by the collection's write seam with everything the
    seam knew, so no consumer (invalidation, matching, replication, auditing)
    looks any of it up again.  By convention nobody assigns to a published event.

    Attributes
    ----------
    sequence:
        Monotonically increasing position in the global change stream; gives
        the total order the staleness auditor reasons about.
    operation:
        Insert, update or delete.
    collection, document_id:
        Identity of the affected record.
    before, after:
        Before- and after-images.  ``before`` is ``None`` for inserts and
        ``after`` is ``None`` for deletes.  Both are the collection's stored
        snapshots themselves (the displaced and the installed version):
        immutable, shared by reference, never to be edited by a listener.
    timestamp:
        Simulation time at which the write was acknowledged.
    version:
        The version ``after`` was installed at in its collection; ``0`` for
        deletes and for hand-built events that never went through one.
    """

    sequence: int
    operation: OperationType
    collection: str
    document_id: str
    before: Optional[Document]
    after: Optional[Document]
    timestamp: float
    version: int = 0


ChangeListener = Callable[[ChangeEvent], None]


class ChangeStream:
    """Publishes change events to registered listeners, keeping a history on request.

    Listeners are invoked synchronously in registration order, which keeps the
    simulation deterministic; any propagation delay (e.g. asynchronous
    invalidations) is modelled by the subscriber itself.  The listener tuple
    is replaced, never edited, so a delivery in progress keeps the listeners
    it started with.  Until :meth:`retain_history` is called the stream keeps
    no event; from then on its history is a deque bounded by
    :data:`CHANGE_HISTORY_LIMIT`.
    """

    def __init__(self) -> None:
        self._listeners: Tuple[ChangeListener, ...] = ()
        self._history: Optional[Deque[ChangeEvent]] = None
        self._sequence = 0

    def retain_history(self) -> None:
        """Keep every event published from now on (the last
        :data:`CHANGE_HISTORY_LIMIT` of them) for :meth:`replay_since`.

        Events published before the call are not kept, so
        :meth:`covers_since` answers ``False`` for positions before them.
        Calling it again changes nothing.
        """
        if self._history is None:
            self._history = deque(maxlen=CHANGE_HISTORY_LIMIT)

    def subscribe(self, listener: ChangeListener) -> Callable[[], None]:
        """Register ``listener``; returns a callable that unsubscribes it."""
        self._listeners += (listener,)

        def _unsubscribe() -> None:
            listeners = list(self._listeners)
            if listener in listeners:
                listeners.remove(listener)
                self._listeners = tuple(listeners)

        return _unsubscribe

    def next_sequence(self) -> int:
        """Reserve and return the next sequence number."""
        self._sequence += 1
        return self._sequence

    def advance(self, count: int) -> None:
        """Number ``count`` writes that publish no event (bulk bootstrap).

        A deployment is loaded before anything subscribes, so there is no one
        to hear those writes: they take their sequence numbers and leave no
        history.  A later caller only ever holds a position at or after the
        load's end, where :meth:`replay_since` and :meth:`covers_since`
        answer as if the events had been published.
        """
        if self._listeners:
            raise ConfigurationError("a bulk install must run before anything subscribes")
        self._sequence += count

    def publish(self, event: ChangeEvent) -> None:
        """Deliver ``event`` to all listeners (and keep it, if retaining)."""
        history = self._history
        if history is not None:
            history.append(event)
        for listener in self._listeners:
            listener(event)

    def replay_since(self, sequence: int) -> List[ChangeEvent]:
        """Events with a sequence strictly greater than ``sequence``.

        Used by the replication layer to compute a failover's loss window.
        Callers that need completeness must check :meth:`covers_since` first:
        the retained history is bounded (and empty on a stream that does not
        retain), so a sufficiently old ``sequence`` may predate it.
        """
        return [event for event in self._history or () if event.sequence > sequence]

    def covers_since(self, sequence: int) -> bool:
        """Whether :meth:`replay_since` for ``sequence`` is provably complete.

        True when nothing after the requested position went unkept: either
        nothing was published after it, or the oldest retained event
        directly follows ``sequence``.
        """
        if self._sequence <= sequence:
            return True
        if not self._history:
            return False
        return self._history[0].sequence <= sequence + 1

    @property
    def last_sequence(self) -> int:
        return self._sequence

    def __len__(self) -> int:
        """Number of retained events."""
        return len(self._history or ())
