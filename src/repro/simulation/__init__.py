"""Monte Carlo simulation framework (Section 6.1, "Monte Carlo simulation").

The paper analyses staleness and client-side behaviour through simulation
because only a simulation provides globally ordered event timestamps without
clock-synchronisation error.  This package provides the pieces: a virtual
clock (in :mod:`repro.clock`), a discrete-event queue, latency models for the
network paths involved, a staleness auditor that checks every read against the
globally ordered write history, and the :class:`Simulator` driving simulated
clients against a full Quaestor deployment.
"""

from __future__ import annotations

from repro.simulation.aggregate import RunAggregate
from repro.simulation.event_queue import EventQueue
from repro.simulation.latency import LatencyModel, NetworkTopology, REGION_RTT_SECONDS
from repro.simulation.staleness import StalenessAuditor
from repro.simulation.simulator import (
    CachingMode,
    SimulationConfig,
    SimulationResult,
    Simulator,
)
from repro.simulation.pool import ParallelSimulationError

__all__ = [
    "EventQueue",
    "LatencyModel",
    "NetworkTopology",
    "REGION_RTT_SECONDS",
    "StalenessAuditor",
    "RunAggregate",
    "CachingMode",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "ParallelSimulationError",
]
