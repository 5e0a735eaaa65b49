"""A minimal discrete-event queue ordered by virtual timestamp.

Hot-path layout (classic DES engineering): the heap holds plain
``(timestamp, sequence, action)`` tuples -- CPython compares tuples in C, so
sift operations never call back into Python.  Nothing is ever cancelled: an
entry leaves the heap only by being popped.
"""

from __future__ import annotations

import heapq
import math
from heapq import heappop, heappush
from typing import Callable, Iterable, List, Optional, Tuple

#: One heap entry: (timestamp, insertion sequence, action).  The sequence is
#: unique, so tuple comparison never reaches the (incomparable) action and
#: ties break by insertion order -- the determinism guarantee.
_HeapEntry = Tuple[float, int, Callable[[], None]]


def _check_timestamp(timestamp: float) -> None:
    if not 0.0 <= timestamp < math.inf:
        raise ValueError(f"timestamp must be finite and non-negative, got {timestamp!r}")


class EventQueue:
    """Priority queue of timestamped actions.

    Ties are broken by insertion order, which keeps simulations fully
    deterministic.
    """

    def __init__(self) -> None:
        self._heap: List[_HeapEntry] = []
        self._next_sequence = 0
        self.processed = 0

    def schedule(self, timestamp: float, action: Callable[[], None]) -> None:
        """Queue ``action`` at ``timestamp``, which must be finite and non-negative."""
        _check_timestamp(timestamp)
        self.push(timestamp, action)

    def push(self, timestamp: float, action: Callable[[], None]) -> None:
        """Queue ``action`` at ``timestamp``, unchecked.

        The caller guarantees a finite, non-negative timestamp -- the
        simulator's completions and purges are sums of a clock reading and
        latencies, all validated finite where they were built.
        """
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        heappush(self._heap, (timestamp, sequence, action))

    def schedule_many(self, items: Iterable[Tuple[float, Callable[[], None]]]) -> None:
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
        # leaving an un-heapified prefix behind.
        sequence = self._next_sequence
        entries: List[_HeapEntry] = []
        for timestamp, action in items:
            _check_timestamp(timestamp)
            entries.append((timestamp, sequence, action))
            sequence += 1
        self._next_sequence = sequence
        heap = self._heap
        if len(entries) * 4 < len(heap):
            for entry in entries:
                heappush(heap, entry)
        else:
            heap.extend(entries)
            heapq.heapify(heap)

    def pop_if_before(self, end_time: float) -> Optional[_HeapEntry]:
        """Pop the next ``(timestamp, sequence, action)`` due at or before
        ``end_time`` (``None`` when there is none); ``action()`` runs it."""
        heap = self._heap
        if heap and heap[0][0] <= end_time:
            self.processed += 1
            return heappop(heap)
        return None

    def __len__(self) -> int:
        return len(self._heap)

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
