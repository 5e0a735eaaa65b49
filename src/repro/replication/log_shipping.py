"""Asynchronous log shipping: the primary-to-replica replication channel.

Every acknowledged write on a primary produces a
:class:`~repro.db.changestream.ChangeEvent`; the replica group wraps it into
a :class:`LogRecord` (adding the modelled delivery time) and appends it to
one :class:`ReplicationLink` per replica.  Delivery is pull-based and lazy: a
replica applies every record whose delivery time has passed the moment it is
asked to serve a read (or is considered for promotion), which keeps the
simulation deterministic without scheduling one event per shipped write.

Links model two failure behaviours:

* **Partition** -- a partitioned link keeps accumulating records (the
  primary retains its log) but delivers nothing until :meth:`heal`, at which
  point the backlog is re-timed to arrive shortly after the heal.
* **Loss on failover** -- records still pending on the freshest replica's
  link when its primary crashes are the classic asynchronous-replication
  loss window; the group flags the affected keys stale in the coherence
  filter rather than pretending they arrived (fail-stale, never
  fail-incorrect).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.db.changestream import ChangeEvent


class LogRecord:
    """One shipped change-stream entry, annotated for replica apply.

    The event carries the authoritative post-write version of the document
    on the primary (``event.version``, ``0`` for deletes), so the replica can
    verify its own version sequence stayed in lock-step.  ``apply_at`` is the
    virtual time at which the record becomes visible on the receiving replica.
    """

    __slots__ = ("event", "apply_at")

    def __init__(self, event: ChangeEvent, apply_at: float) -> None:
        self.event = event
        self.apply_at = apply_at

    def __repr__(self) -> str:
        return (
            f"LogRecord(sequence={self.event.sequence}, "
            f"operation={self.event.operation.value}, apply_at={self.apply_at:.4f})"
        )


class ReplicationLink:
    """The in-order delivery channel between a primary and one replica."""

    def __init__(self) -> None:
        self._pending: Deque[LogRecord] = deque()
        self.partitioned = False
        #: Delivery times are forced monotone per link so jittered lag draws
        #: can never reorder the log (replicas apply strictly in sequence).
        self._last_apply_at = 0.0
        self.shipped = 0
        self.delivered = 0

    def ship(self, record: LogRecord) -> None:
        """Append ``record``, clamping its delivery time to stay in order."""
        if record.apply_at < self._last_apply_at:
            record.apply_at = self._last_apply_at
        self._last_apply_at = record.apply_at
        self._pending.append(record)
        self.shipped += 1

    def take_ready(self, now: float) -> Sequence[LogRecord]:
        """Pop every record whose delivery time has passed (FIFO order).

        Nothing due -- the common case of a read-path delivery check --
        returns the shared empty tuple without building a list.
        """
        pending = self._pending
        if self.partitioned or not pending or pending[0].apply_at > now:
            return ()
        ready: List[LogRecord] = []
        while pending and pending[0].apply_at <= now:
            ready.append(pending.popleft())
        self.delivered += len(ready)
        return ready

    def partition(self) -> None:
        """Stop delivering; the primary keeps appending to the backlog."""
        self.partitioned = True

    def heal(self, now: float, catchup_lag: float) -> None:
        """Re-open the link; the backlog is re-timed to land after the heal."""
        self.partitioned = False
        arrival = now + max(0.0, catchup_lag)
        for record in self._pending:
            if record.apply_at < arrival:
                record.apply_at = arrival
        if self._pending:
            self._last_apply_at = max(self._last_apply_at, self._pending[-1].apply_at)

    def pending_records(self) -> List[LogRecord]:
        """Records shipped but not yet delivered (the potential loss window)."""
        return list(self._pending)

    def oldest_pending_timestamp(self) -> Optional[float]:
        """Commit timestamp of the oldest undelivered record (O(1) peek)."""
        return self._pending[0].event.timestamp if self._pending else None

    def clear(self) -> None:
        """Drop the backlog (used when a replica is re-seeded via snapshot)."""
        self._pending.clear()

    def __len__(self) -> int:
        return len(self._pending)

    def __repr__(self) -> str:
        return (
            f"ReplicationLink(pending={len(self._pending)}, shipped={self.shipped}, "
            f"partitioned={self.partitioned})"
        )
