"""Per-shard replication: replica groups, asynchronous log shipping, failover.

A DBaaS must survive node loss.  This package adds the standard availability
answer on top of the sharded deployment (:mod:`repro.cluster`): every shard
becomes a :class:`ReplicaGroup` -- a primary
:class:`~repro.core.QuaestorServer` plus ``replication_factor - 1`` replica
databases fed by asynchronous log shipping with a modelled replication-lag
distribution.  Replica reads are gated by the paper's consistency levels
(STRONG always routes to the primary; CAUSAL checks the replica's apply
watermark against the session's causal frontier; DELTA_ATOMIC scale-out reads
accept bounded staleness the auditor measures), and failover promotes the
freshest surviving replica deterministically, flagging the asynchronous loss
window stale in the coherence filter (fail-stale, never fail-incorrect).

With ``replication_factor=1`` and no faults the layer is a strict no-op:
reads route to the primary through the identical code path, no lag is ever
sampled, and seeded simulation results are value-identical to a deployment
without this package.

Fault scenarios (crash / recover schedules and gray failures) are driven by
the companion :mod:`repro.faults` package.
"""

from __future__ import annotations

from repro.replication.config import ReplicationConfig, default_replication_lag
from repro.replication.group import ReplicaGroup
from repro.replication.log_shipping import LogRecord, ReplicationLink
from repro.replication.replica import ReplicaNode

__all__ = [
    "ReplicationConfig",
    "default_replication_lag",
    "ReplicaGroup",
    "ReplicaNode",
    "ReplicationLink",
    "LogRecord",
]
