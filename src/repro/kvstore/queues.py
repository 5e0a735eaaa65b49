"""Message queues used between Quaestor servers and the InvaliDB cluster.

The paper routes query registrations and after-images through Redis message
queues.  This reproduction models them as bounded FIFO queues with simple
offered/accepted accounting so that saturation behaviour (operations queueing
up once a cluster is overloaded, Section 6.3) can be observed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterable, List, Optional


class MessageQueue:
    """A bounded FIFO queue with drop-new overflow semantics."""

    def __init__(self, name: str, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive when given")
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self.offered = 0
        self.accepted = 0
        self.dropped = 0
        self.consumed = 0

    def offer(self, item: Any) -> bool:
        """Enqueue ``item``; returns ``False`` if the queue is full."""
        self.offered += 1
        if self.capacity is not None and len(self._items) >= self.capacity:
            self.dropped += 1
            return False
        self._items.append(item)
        self.accepted += 1
        return True

    def offer_all(self, items: Iterable[Any]) -> int:
        """Enqueue many items; returns how many were accepted."""
        return sum(1 for item in items if self.offer(item))

    def poll(self) -> Optional[Any]:
        """Dequeue the oldest item, or ``None`` when empty."""
        if not self._items:
            return None
        self.consumed += 1
        return self._items.popleft()

    def drain(self, max_items: Optional[int] = None) -> List[Any]:
        """Dequeue up to ``max_items`` items (all of them when ``None``)."""
        items = self._items
        if max_items is None or max_items >= len(items):
            drained = list(items)
            items.clear()
        else:
            drained = [items.popleft() for _ in range(max_items)]
        self.consumed += len(drained)
        return drained

    def peek(self) -> Optional[Any]:
        """Look at the oldest item without removing it."""
        return self._items[0] if self._items else None

    def clear(self) -> None:
        self._items.clear()

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __repr__(self) -> str:
        return (
            f"MessageQueue(name={self.name!r}, depth={len(self._items)}, "
            f"accepted={self.accepted}, dropped={self.dropped})"
        )
