"""A minimal discrete-event queue ordered by virtual timestamp.

Hot-path layout (classic DES engineering): the heap holds plain
``(timestamp, sequence, item)`` tuples -- CPython compares tuples in C, so
sift operations never call back into Python.  An item is a cancellable
:class:`ScheduledEvent` or, for what is never cancelled, the bare action
(:meth:`EventQueue.push`); both are callable.  Cancellation is lazy
(cancelled events stay in the heap and are skipped on pop), with counters
keeping ``len()``/``bool()`` O(1) and a compaction pass that rebuilds the
heap once cancelled entries outnumber live ones.
"""

from __future__ import annotations

import heapq
import math
from heapq import heappop, heappush
from typing import Callable, Iterable, List, Optional, Tuple

#: One heap entry: (timestamp, insertion sequence, event or bare action).  The
#: sequence is unique, so tuple comparison never reaches the (incomparable)
#: item and ties break by insertion order -- the determinism guarantee.
_HeapEntry = Tuple[float, int, Callable[[], None]]


def _check_timestamp(timestamp: float) -> None:
    if not 0.0 <= timestamp < math.inf:
        raise ValueError(f"timestamp must be finite and non-negative, got {timestamp!r}")


class ScheduledEvent:
    """An event scheduled for a point in virtual time."""

    __slots__ = ("timestamp", "sequence", "action", "label", "cancelled", "_queue")

    def __init__(
        self,
        timestamp: float,
        sequence: int,
        action: Callable[[], None],
        label: str = "",
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.timestamp = timestamp
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = False
        self._queue = queue

    def __call__(self) -> None:
        """Run the action (what a loop over :meth:`EventQueue.pop_if_before` does)."""
        self.action()

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped.

        Cancelling an event that was already popped (or cancelled) is a
        no-op: the queue detaches itself from an event on pop, so the
        live/cancelled bookkeeping only ever counts events still in the heap.
        """
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._on_cancel()

    def __repr__(self) -> str:
        return (
            f"ScheduledEvent(timestamp={self.timestamp!r}, sequence={self.sequence!r}, "
            f"label={self.label!r}, cancelled={self.cancelled!r})"
        )


class EventQueue:
    """Priority queue of timestamped actions.

    Ties are broken by insertion order, which keeps simulations fully
    deterministic.
    """

    def __init__(self) -> None:
        self._heap: List[_HeapEntry] = []
        self._next_sequence = 0
        #: Events cancelled while still queued (``len`` subtracts them).
        self._cancelled = 0
        #: Cancelled entries still sitting in the heap (lazy deletion debt).
        self._cancelled_in_heap = 0
        self.processed = 0

    def schedule(self, timestamp: float, action: Callable[[], None], label: str = "") -> ScheduledEvent:
        """Schedule ``action`` to run at ``timestamp``; the event can be cancelled."""
        _check_timestamp(timestamp)
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event = ScheduledEvent(timestamp, sequence, action, label, self)
        heappush(self._heap, (timestamp, sequence, event))
        return event

    def push(self, timestamp: float, action: Callable[[], None]) -> None:
        """Queue ``action`` at ``timestamp`` as a bare entry that is never cancelled.

        Unchecked: the caller guarantees a finite, non-negative timestamp --
        the simulator's completions and purges are sums of a clock reading
        and latencies, all validated finite where they were built.
        """
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        heappush(self._heap, (timestamp, sequence, action))

    def schedule_many(
        self, items: Iterable[Tuple[float, Callable[[], None]]], label: str = ""
    ) -> List[ScheduledEvent]:
        """Bulk-schedule ``(timestamp, action)`` pairs in one pass.

        Sequences are assigned in input order (same tie-breaking as repeated
        :meth:`schedule` calls).  A batch comparable in size to the pending
        heap is loaded with one ``heapify`` -- O(n + m) instead of m pushes
        at O(m log n); a small batch against a large heap falls back to
        plain pushes so the call never re-heapifies more than it adds.  Used
        by the simulator's connection start-up, which seeds one event per
        simulated connection before the loop starts.
        """
        # Validate and materialise every entry before touching the heap, so a
        # bad timestamp mid-iteration rejects the whole batch instead of
        # leaving an un-heapified, un-accounted prefix behind.
        sequence = self._next_sequence
        entries: List[_HeapEntry] = []
        events: List[ScheduledEvent] = []
        for timestamp, action in items:
            _check_timestamp(timestamp)
            event = ScheduledEvent(timestamp, sequence, action, label, self)
            entries.append((timestamp, sequence, event))
            events.append(event)
            sequence += 1
        self._next_sequence = sequence
        heap = self._heap
        if len(entries) * 4 < len(heap):
            for entry in entries:
                heappush(heap, entry)
        else:
            heap.extend(entries)
            heapq.heapify(heap)
        return events

    def pop(self) -> Optional[ScheduledEvent]:
        """Remove and return the next non-cancelled event (or ``None``); a bare
        entry comes back wrapped in a detached event."""
        entry = self.pop_if_before(math.inf)
        if entry is None or entry[2].__class__ is ScheduledEvent:
            return entry and entry[2]
        return ScheduledEvent(*entry)

    def pop_if_before(self, end_time: float) -> Optional[_HeapEntry]:
        """Pop the next live ``(timestamp, sequence, item)`` due at or before
        ``end_time`` (``None`` when there is none); ``item()`` runs it.

        Single heap inspection for the simulator's main loop (instead of a
        :meth:`peek_time` followed by a :meth:`pop`).
        """
        heap = self._heap
        if self._cancelled_in_heap:
            self._drop_cancelled_head()
        if heap and heap[0][0] <= end_time:
            entry = heappop(heap)
            if entry[2].__class__ is ScheduledEvent:
                entry[2]._queue = None
            self.processed += 1
            return entry
        return None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event without removing it."""
        if self._cancelled_in_heap:
            self._drop_cancelled_head()
        heap = self._heap
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return self._next_sequence - self.processed - self._cancelled

    def __bool__(self) -> bool:
        return self._next_sequence - self.processed - self._cancelled > 0

    # -- lazy-deletion bookkeeping ------------------------------------------------------

    @staticmethod
    def _is_cancelled(entry: _HeapEntry) -> bool:
        return entry[2].__class__ is ScheduledEvent and entry[2].cancelled

    def _drop_cancelled_head(self) -> None:
        while self._heap and self._is_cancelled(self._heap[0]):
            heappop(self._heap)
            self._cancelled_in_heap -= 1

    def _on_cancel(self) -> None:
        """Account for one cancellation; compact once debt exceeds live work."""
        self._cancelled += 1
        self._cancelled_in_heap += 1
        if self._cancelled_in_heap * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (amortised O(n))."""
        self._heap = [entry for entry in self._heap if not self._is_cancelled(entry)]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    def run_until(self, clock, end_time: float) -> int:
        """Execute events (advancing ``clock``) until ``end_time``; returns count."""
        executed = 0
        advance_to = clock.advance_to
        pop_if_before = self.pop_if_before
        while True:
            entry = pop_if_before(end_time)
            if entry is None:
                break
            advance_to(entry[0])
            entry[2]()
            executed += 1
        advance_to(end_time)
        return executed
