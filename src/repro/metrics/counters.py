"""Counters: the one place a run counts anything.

The simulator, servers, cluster, replica groups and resilience runtime each
keep a :class:`Counter`; ``statistics()`` snapshots and the labelled rows of
``repro.obs.MetricsRegistry`` are views over them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict


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
        Levels that legitimately fall (open breakers, queue depths) are not
        counted: their owner reports them when a snapshot is taken, as
        ``ResilienceRuntime.breaker_state_counts`` does.
        """
        new_value = self.counts[name] + amount
        if new_value < 0:
            raise ValueError(
                f"counter {name!r} cannot go below zero "
                f"(value={self.counts[name]}, amount={amount}); "
                f"a level that falls is not a count"
            )
        self.counts[name] = new_value
        return new_value

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __repr__(self) -> str:
        return f"Counter({dict(self.counts)!r})"
