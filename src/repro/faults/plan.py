"""Fault plans: scripted failure schedules.

A :class:`FaultPlan` is a time-ordered list of :class:`FaultEvent`\\ s the
:class:`~repro.faults.injector.FaultInjector` schedules into the simulator's
event queue.  Plans are plain data, so any existing figure scenario can be
replayed under failures by attaching a plan to its
:class:`~repro.simulation.SimulationConfig` -- nothing else changes.

Targets are resolved *at fire time*:

* ``"shard:2"`` -- whichever node is currently the primary of shard 2 (so a
  second crash in a plan hits the promoted replica, like real chaos tooling
  that targets roles, not hosts), and
* ``"s2:n1"`` -- a specific node by id, whatever its current role.

Target strings are validated *at construction* against those two grammars,
so a typo fails the moment the plan is built rather than mid-simulation (or
never, for events that silently miss).

Beyond fail-stop crashes, plans can express *gray* failures: ``SLOW_SHARD``
inflates a target's latency by ``magnitude`` (a multiplier >= 1),
``FLAKY_SHARD`` drops a seeded fraction of its requests (``magnitude`` in
``(0, 1]``), and ``RESTORE`` clears both.  See
:class:`~repro.faults.gray.GrayFailureState` for the exact drop/inflation
semantics and :meth:`FaultPlan.brownout` / :meth:`FaultPlan.flaky` for
canned scenarios.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError, UnsupportedFaultError

#: The injector's two target grammars: role targets and node targets.  The
#: first group is a role target's shard id, the second a node target's.
_TARGET_GRAMMAR = re.compile(r"^(?:shard:(\d+)|s(\d+):n\d+)$")


def target_shard(target: str) -> int:
    """The shard id a fault target names (``"shard:3"`` and ``"s3:n1"`` both
    name shard 3); raises :class:`UnsupportedFaultError` on anything else."""
    try:
        match = _TARGET_GRAMMAR.match(target)
    except TypeError:  # not a string
        match = None
    if match is None:
        raise UnsupportedFaultError(
            f"fault target {target!r} is not a valid target: expected "
            f"'shard:<id>' (role: the shard's current primary) or "
            f"'s<shard>:n<index>' (a specific node)"
        )
    return int(match[1] or match[2])


class FaultAction(str, enum.Enum):
    """The failure vocabulary of the injector."""

    CRASH = "crash"
    RECOVER = "recover"
    SLOW_SHARD = "slow_shard"
    FLAKY_SHARD = "flaky_shard"
    RESTORE = "restore"


#: Gray actions carry a magnitude; fail-stop actions must not.
_GRAY_ACTIONS = frozenset({FaultAction.SLOW_SHARD, FaultAction.FLAKY_SHARD})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` names a node (``"s0:n1"``) or a role (``"shard:0"`` = that
    shard's primary at fire time).  ``magnitude`` is only used by the gray
    actions: the latency multiplier (>= 1) for SLOW_SHARD, the request-drop
    probability (in ``(0, 1]``) for FLAKY_SHARD.
    """

    time: float
    action: FaultAction
    target: str
    magnitude: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError("fault time must be non-negative")
        target_shard(self.target)
        if self.action in _GRAY_ACTIONS:
            if self.magnitude is None:
                raise ConfigurationError(f"{self.action.value} requires a magnitude")
            if self.action is FaultAction.SLOW_SHARD and self.magnitude < 1.0:
                raise ConfigurationError("slow_shard magnitude is a latency multiplier >= 1")
            if self.action is FaultAction.FLAKY_SHARD and not 0.0 < self.magnitude <= 1.0:
                raise ConfigurationError("flaky_shard magnitude is a drop rate in (0, 1]")
        elif self.magnitude is not None:
            raise ConfigurationError(f"{self.action.value} does not take a magnitude")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic failure schedule (sorted by time at construction)."""

    events: Sequence[FaultEvent] = field(default_factory=tuple)
    name: str = "custom"

    def __post_init__(self) -> None:
        # Ties sort stably by (time, target, action): events at the same
        # instant get one canonical order regardless of construction order,
        # so seeded plans diff cleanly in violation reports.  Same-time gray
        # events commute (the injector applies both before any request runs),
        # making the canonicalisation behaviour-neutral.
        ordered = tuple(
            sorted(
                self.events,
                key=lambda event: (event.time, event.target, event.action.value),
            )
        )
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    # -- canned scenarios ---------------------------------------------------------------

    @classmethod
    def primary_crash(
        cls, shard: int = 0, at: float = 30.0, recover_at: Optional[float] = None
    ) -> "FaultPlan":
        """The canonical drill: crash one shard's primary, optionally recover it.

        The crash resolves the *current* primary at fire time; the recovery
        targets that same node (the injector remembers which node the crash
        actually hit), which then rejoins as a replica of the promoted
        primary.
        """
        events = [FaultEvent(at, FaultAction.CRASH, f"shard:{shard}")]
        if recover_at is not None:
            if recover_at <= at:
                raise ConfigurationError("recover_at must come after the crash")
            events.append(FaultEvent(recover_at, FaultAction.RECOVER, f"shard:{shard}"))
        return cls(events=events, name=f"primary-crash/shard={shard}")

    @classmethod
    def rolling_primary_crashes(
        cls, shards: Sequence[int], start: float = 20.0, spacing: float = 15.0,
        downtime: Optional[float] = None,
    ) -> "FaultPlan":
        """Crash one primary per shard in sequence (rolling failure drill)."""
        events: List[FaultEvent] = []
        for offset, shard in enumerate(shards):
            crash_at = start + offset * spacing
            events.append(FaultEvent(crash_at, FaultAction.CRASH, f"shard:{shard}"))
            if downtime is not None:
                events.append(
                    FaultEvent(crash_at + downtime, FaultAction.RECOVER, f"shard:{shard}")
                )
        return cls(events=events, name=f"rolling-crashes/{len(shards)}-shards")

    @classmethod
    def brownout(
        cls,
        shard: int = 0,
        at: float = 5.0,
        recover_at: float = 25.0,
        slow_factor: float = 4.0,
        drop_rate: float = 0.15,
    ) -> "FaultPlan":
        """A gray brownout: one shard turns slow *and* mildly flaky, then recovers.

        Models the classic partial failure Quaestor's cached serving is
        meant to ride out: the shard still answers, but every round-trip
        inflates by ``slow_factor`` and ``drop_rate`` of requests are lost
        before admission (so retries -- even write retries -- are safe).
        """
        if recover_at <= at:
            raise ConfigurationError("recover_at must come after the brownout start")
        target = f"shard:{shard}"
        events = [FaultEvent(at, FaultAction.SLOW_SHARD, target, magnitude=slow_factor)]
        if drop_rate > 0:
            events.append(FaultEvent(at, FaultAction.FLAKY_SHARD, target, magnitude=drop_rate))
        events.append(FaultEvent(recover_at, FaultAction.RESTORE, target))
        return cls(events=events, name=f"brownout/shard={shard}")

    @classmethod
    def flaky(
        cls,
        shard: int = 0,
        at: float = 5.0,
        recover_at: float = 25.0,
        drop_rate: float = 0.35,
    ) -> "FaultPlan":
        """One shard drops a seeded fraction of requests, then recovers."""
        if recover_at <= at:
            raise ConfigurationError("recover_at must come after the flaky window")
        target = f"shard:{shard}"
        return cls(
            events=[
                FaultEvent(at, FaultAction.FLAKY_SHARD, target, magnitude=drop_rate),
                FaultEvent(recover_at, FaultAction.RESTORE, target),
            ],
            name=f"flaky/shard={shard}",
        )
