"""Configuration of a shard's replica group.

Replication in the reproduction is asynchronous log shipping: the primary
publishes every acknowledged write on its change stream, and each replica
applies the entry after a modelled replication lag drawn from a
:class:`~repro.simulation.latency.LatencyModel` (the same jitter machinery
every other network path of the simulator uses).  The knobs here mirror what
a DBaaS operator would tune: the replication factor, the lag distribution,
and how long failure detection takes before a replica is promoted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.simulation.latency import LatencyModel

#: Upper bound on how far behind (seconds of unapplied backlog) a replica may
#: be and still serve Delta-atomic reads.  Delta-atomicity budgets for
#: *bounded* staleness; a partitioned or deeply backlogged replica would
#: otherwise serve arbitrarily old state to an EBF-triggered revalidation and
#: have it whitelisted as fresh.  When the primary is down, over-bound
#: replicas still serve (fail-stale availability beats refusing entirely).
MAX_REPLICA_STALENESS = 1.0


def default_replication_lag() -> LatencyModel:
    """Intra-region asynchronous replication: ~20 ms with mild jitter."""
    return LatencyModel(mean=0.020, jitter=0.005, minimum=0.001)


@dataclass
class ReplicationConfig:
    """Tunable parameters of per-shard replication and failover.

    Parameters
    ----------
    replication_factor:
        Total copies of every shard, primary included.  ``1`` means no
        replication at all -- the replica group degenerates to a plain
        primary and is a strict no-op on every request path.
    lag:
        Distribution of the shipping delay between a write being acknowledged
        on the primary and the entry becoming visible on a replica.
    failover_detection_delay:
        Seconds between a primary crash and the promotion of the freshest
        replica (failure detection + election).  During this window the shard
        accepts no writes or strong reads; Delta-atomic and causal reads keep
        being served fail-stale by the surviving replicas.
    """

    replication_factor: int = 1
    lag: LatencyModel = field(default_factory=default_replication_lag)
    failover_detection_delay: float = 0.5

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ConfigurationError("replication_factor must be at least 1")
        if self.failover_detection_delay < 0:
            raise ConfigurationError("failover_detection_delay must be non-negative")

    def reseed(self, seed: int) -> None:
        """Reseed the lag jitter stream (deterministic experiments)."""
        self.lag.reseed(seed)
