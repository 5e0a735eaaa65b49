"""Fault injection: seeded crash / recover and gray-failure scenarios.

The ROADMAP's north star asks for "as many scenarios as you can imagine";
this package makes failure one of them.  A
:class:`~repro.faults.plan.FaultPlan` is a deterministic schedule of
:class:`~repro.faults.plan.FaultEvent`\\ s -- scripted
(:meth:`FaultPlan.primary_crash`, :meth:`FaultPlan.rolling_primary_crashes`,
or event by event).  The
:class:`~repro.faults.injector.FaultInjector` replays the plan through the
simulator's event queue against a replicated
:class:`~repro.cluster.QuaestorCluster`, driving the failover machinery of
:mod:`repro.replication` and recording the availability timeline
(time-to-recover per outage).

Failures are not only fail-stop: gray actions (``SLOW_SHARD`` latency
inflation, ``FLAKY_SHARD`` seeded request drops, ``RESTORE``) flow through
the same injector into the cluster's
:class:`~repro.faults.gray.GrayFailureState`, so plans can express
brownouts -- the partial failures the resilience layer
(:mod:`repro.resilience`) exists to ride out.

Attach a plan to :class:`~repro.simulation.SimulationConfig` via its
``fault_plan`` field and any existing figure scenario replays under failures.
"""

from __future__ import annotations

from repro.faults.gray import GrayFailureState
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultAction, FaultEvent, FaultPlan

__all__ = [
    "FaultAction",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "GrayFailureState",
]
