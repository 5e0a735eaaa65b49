"""The fault injector: replaying a fault plan against a live cluster.

The injector schedules every :class:`~repro.faults.plan.FaultEvent` of a plan
into the simulator's discrete :class:`~repro.simulation.event_queue.EventQueue`
and, when a crash takes out a shard's primary, schedules the failover
(promotion of the freshest replica plus re-registration of the cluster's
active queries) after the configured failure-detection delay.  Everything is
driven by the same virtual clock and queue as the workload itself, so fault
timing interleaves deterministically with requests.

The injector also keeps the experiment's failure timeline -- crash, recovery
and promotion instants -- from which it derives the headline availability
metrics (time-to-recover per failover) reported in benchmark summaries.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.clock import Clock
from repro.faults.plan import FaultAction, FaultEvent, FaultPlan, target_shard
from repro.simulation.event_queue import EventQueue

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.cluster.deployment import QuaestorCluster


class FaultInjector:
    """Schedules a :class:`FaultPlan` into an event queue against a cluster."""

    def __init__(
        self,
        cluster: "QuaestorCluster",
        events: EventQueue,
        clock: Clock,
        plan: FaultPlan,
        detection_delay: Optional[float] = None,
    ) -> None:
        self.cluster = cluster
        self.events = events
        self.clock = clock
        self.plan = plan
        self.detection_delay = (
            detection_delay
            if detection_delay is not None
            else cluster.replication.failover_detection_delay
        )
        #: Ordered record of everything the injector did (diagnostics).
        self.timeline: List[Dict[str, object]] = []
        #: Role targets ("shard:0") resolved at crash time, so a later
        #: RECOVER of the same role brings back the node actually crashed.
        self._role_bindings: Dict[str, str] = {}
        #: Concrete node pairs resolved at PARTITION time, keyed by the
        #: plan's (target, peer) identity: the matching HEAL must heal the
        #: pair that was actually cut, even if a failover moved the role's
        #: primary in between.
        self._partition_bindings: Dict[tuple, tuple] = {}
        self.faults_fired = 0
        self._armed = False

    # -- scheduling ----------------------------------------------------------------------

    def arm(self) -> int:
        """Schedule every plan event into the queue; returns the event count."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        for event in self.plan.events:
            self.events.schedule(event.time, partial(self._fire, event))
        return len(self.plan.events)

    # -- event execution -----------------------------------------------------------------

    def _fire(self, event: FaultEvent) -> None:
        self.faults_fired += 1
        if event.action is FaultAction.CRASH:
            self._crash(event)
        elif event.action is FaultAction.RECOVER:
            self._recover(event)
        elif event.action is FaultAction.PARTITION:
            self._partition(event)
        elif event.action is FaultAction.HEAL:
            self._heal(event)
        elif event.action is FaultAction.SLOW_SHARD:
            self.cluster.slow_target(event.target, event.magnitude)
            self._record("slow_shard", event.target, target_shard(event.target))
        elif event.action is FaultAction.FLAKY_SHARD:
            self.cluster.flaky_target(event.target, event.magnitude)
            self._record("flaky_shard", event.target, target_shard(event.target))
        else:
            self.cluster.restore_target(event.target)
            self._record("restore", event.target, target_shard(event.target))

    def _crash(self, event: FaultEvent) -> None:
        # Resolve the role fresh on every crash (a second "shard:N" crash
        # must hit the *promoted* primary, not the dead ex-primary); the
        # binding is recorded only so the matching RECOVER pairs up.
        node_id = self._resolve(event.target, bind=True, use_binding=False)
        now = self.clock.now()
        shard_id, lost_primary = self.cluster.crash_node(node_id)
        self._record("crash", node_id, shard_id)
        if not lost_primary:
            return
        group = self.cluster.groups[shard_id]
        if group.alive_replicas():
            self.events.schedule(now + self.detection_delay, partial(self._failover, shard_id))

    def _failover(self, shard_id: int) -> None:
        # The cluster's tracker is the single source for the crash instant;
        # read it before failover clears it on success.
        down_at = self.cluster.primary_down_since(shard_id)
        info = self.cluster.failover(shard_id)
        if info is None:
            # Nothing to promote: either the primary already came back, or
            # every replica died too (the cluster keeps the crash instant,
            # so an eventual restore still reports its time-to-recover).
            return
        entry = self._record("failover", str(info["node_id"]), shard_id)
        if down_at is not None:
            entry["time_to_recover"] = self.clock.now() - down_at

    def _recover(self, event: FaultEvent) -> None:
        node_id = self._resolve(event.target, bind=False)
        shard_id = self.cluster.shard_of(node_id)
        down_at = self.cluster.primary_down_since(shard_id)
        _shard, status = self.cluster.recover_node(node_id)
        self._role_bindings.pop(event.target, None)
        entry = self._record("recover", node_id, shard_id)
        entry["role"] = status
        if down_at is not None and self.cluster.groups[shard_id].primary_alive:
            # This recovery ended the outage (restore from disk, or a
            # rejoining candidate triggering a promotion): availability
            # returns here.  An ordinary replica rejoin under a healthy
            # primary sees no pending crash instant and records nothing.
            entry["time_to_recover"] = self.clock.now() - down_at

    def _partition(self, event: FaultEvent) -> None:
        node_a = self._resolve(event.target, bind=False, use_binding=False)
        node_b = self._resolve(event.peer, bind=False, use_binding=False)
        self._partition_bindings[(event.target, event.peer)] = (node_a, node_b)
        self.cluster.partition(node_a, node_b)
        self._record("partition", f"{node_a}|{node_b}", self.cluster.shard_of(node_a))

    def _heal(self, event: FaultEvent) -> None:
        bound = self._partition_bindings.pop((event.target, event.peer), None)
        if bound is not None:
            node_a, node_b = bound
        else:
            node_a = self._resolve(event.target, bind=False, use_binding=False)
            node_b = self._resolve(event.peer, bind=False, use_binding=False)
        self.cluster.heal(node_a, node_b)
        self._record("heal", f"{node_a}|{node_b}", self.cluster.shard_of(node_a))

    def _resolve(self, target: str, bind: bool, use_binding: bool = True) -> str:
        """Resolve a plan target to a concrete node id.

        Role targets (``"shard:N"``) resolve to the shard's current primary;
        a crash *binds* the resolution so the matching RECOVER hits the node
        that actually went down rather than the newly promoted primary.  The
        binding applies only to the crash/recover pair -- PARTITION and HEAL
        pass ``use_binding=False`` so a post-failover ``"shard:N"`` acts on
        the *current* primary, not the dead ex-primary.
        """
        if use_binding and target in self._role_bindings:
            return self._role_bindings[target]
        if target.startswith("shard:"):
            node_id = self.cluster.groups[target_shard(target)].primary_node_id
            if bind:
                # Latest crash wins: a later RECOVER of this role brings back
                # the node this crash actually took down.
                self._role_bindings[target] = node_id
            return node_id
        return target

    def _record(self, action: str, node_id: str, shard_id: int) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "time": self.clock.now(),
            "action": action,
            "node": node_id,
            "shard": shard_id,
        }
        self.timeline.append(entry)
        return entry

    # -- reporting -----------------------------------------------------------------------

    def recovery_times(self) -> List[float]:
        """Per-outage time-to-recover (crash to restored service), seconds."""
        return [
            float(entry["time_to_recover"])
            for entry in self.timeline
            if "time_to_recover" in entry
        ]

    def __repr__(self) -> str:
        return (
            f"FaultInjector(plan={self.plan.name!r}, events={len(self.plan)}, "
            f"fired={self.faults_fired})"
        )
