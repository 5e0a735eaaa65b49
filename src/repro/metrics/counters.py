"""Counters and throughput windows."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional


class Counter:
    """A named group of integer counters.

    ``counts`` is the live name -> value mapping (missing names read 0).
    Per-operation paths that only ever add one (``counts[name] += 1``) use it
    directly; anything that can subtract goes through :meth:`increment`,
    which guards the floor.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = defaultdict(int)

    def increment(self, name: str, amount: int = 1) -> int:
        """Increase ``name`` by ``amount`` and return the new value.

        Counters are monotone event tallies; a decrement that would take the
        total below zero is a modelling bug, not a measurement, and raises.
        Values that legitimately fall (queue depths, in-flight requests)
        belong in :class:`repro.obs.Gauge` instead.
        """
        new_value = self.counts[name] + amount
        if new_value < 0:
            raise ValueError(
                f"counter {name!r} cannot go below zero "
                f"(value={self.counts[name]}, amount={amount}); "
                f"use a gauge for values that fall"
            )
        self.counts[name] = new_value
        return new_value

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)

    def reset(self) -> None:
        self.counts.clear()

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __repr__(self) -> str:
        return f"Counter({dict(self.counts)!r})"


class ThroughputWindow:
    """Operations-per-second accounting over a measured time window.

    The simulator records completed operations together with the virtual time
    at which they finished; throughput is operations divided by the window
    length, matching how the paper reports ops/s for a fixed load phase.
    """

    def __init__(self) -> None:
        self._operations = 0
        self._first_timestamp: Optional[float] = None
        self._last_timestamp: Optional[float] = None

    def record(self, timestamp: float, operations: int = 1) -> None:
        """Record ``operations`` completions at ``timestamp``.

        Contract: the window spans the *first* recorded timestamp to the
        *last* recorded one.  A single sample spans zero seconds (throughput
        reads 0.0 -- no elapsed time to divide by), and a last timestamp
        behind the first (out-of-order recording) clamps the duration to
        zero rather than going negative.
        """
        if operations < 0:
            raise ValueError("operations must be non-negative")
        if self._first_timestamp is None:
            self._first_timestamp = timestamp
        self._last_timestamp = timestamp
        self._operations += operations

    @property
    def operations(self) -> int:
        return self._operations

    @property
    def duration(self) -> float:
        """Length of the observed window in seconds."""
        if self._first_timestamp is None or self._last_timestamp is None:
            return 0.0
        return max(0.0, self._last_timestamp - self._first_timestamp)

    def throughput(self, window: Optional[float] = None) -> float:
        """Operations per second over ``window`` (or the observed duration)."""
        duration = window if window is not None else self.duration
        if duration <= 0:
            return 0.0
        return self._operations / duration

    def reset(self) -> None:
        self._operations = 0
        self._first_timestamp = None
        self._last_timestamp = None

    def __repr__(self) -> str:
        return f"ThroughputWindow(operations={self._operations}, duration={self.duration:.3f}s)"
