"""Clock abstractions shared by every component.

All latency-, TTL- and staleness-related logic in the reproduction is driven
by an explicit clock object instead of ``time.time()``.  Components accept a
:class:`Clock` so that the Monte Carlo simulator (:mod:`repro.simulation`)
can advance a :class:`VirtualClock` deterministically and audit staleness
against a globally ordered history, exactly as the paper's simulation does.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Minimal clock interface: a monotonically non-decreasing ``now()``."""

    def now(self) -> float:
        """Return the current time in seconds."""
        ...


class VirtualClock:
    """A manually advanced clock used for deterministic simulation.

    The clock only moves when :meth:`advance` or :meth:`advance_to` is called,
    which makes experiments reproducible and allows the staleness auditor to
    reason about a single global timeline without clock-synchronisation error
    (the reason the paper uses simulation for its staleness analysis).
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock cannot start at a negative time")
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, delta: float) -> float:
        """Move the clock forward by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise ValueError(f"cannot move time backwards (delta={delta})")
        self._now += delta
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to ``timestamp`` (no-op if already past it)."""
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.6f})"
