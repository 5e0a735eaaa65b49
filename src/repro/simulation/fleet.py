"""The simulator's fleet side: building a cluster and pricing what it placed.

A :class:`~repro.cluster.QuaestorCluster` decides where each request runs
and records it: ``read_placement``, ``write_placement`` and
``scatter_placement``.  :class:`FleetPricer` is the one piece of simulation
code that reads cluster state; it never routes a request again.  Two
charges are modelled rather than read off a placement, as they always were:
an id-list result's member fetches queue round-robin over the serving
nodes, and every request but a record read is slowed by the worst live
primary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.client.sdk import DEGRADED_LEVEL, ERROR_LEVEL
from repro.simulation.pricing import NO_MARKERS, Pricer

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.cluster import QuaestorCluster
    from repro.simulation.simulator import SimulationConfig


def build_cluster(
    config: "SimulationConfig", quaestor_config, clock, auditor, dataset, tracer
) -> "QuaestorCluster":
    """The sharded (or replicated) deployment a config asks for.

    The dataset is routed into per-shard databases before the shard servers
    subscribe, mirroring a single server's pre-load.
    """
    from repro.cluster import QuaestorCluster

    replication = None
    if config.replication_factor > 1 or config.fault_plan is not None:
        from repro.replication import ReplicationConfig

        # The lag stream was reseeded with every other topology model, so
        # replicated runs are exactly as reproducible as plain ones.
        replication = ReplicationConfig(
            replication_factor=config.replication_factor,
            lag=config.topology.replication_lag,
            failover_detection_delay=config.failover_detection_delay,
        )
    return QuaestorCluster(
        num_shards=config.num_shards,
        clock=clock,
        config=quaestor_config,
        matching_nodes=config.matching_nodes,
        auditor=auditor,
        dataset=dataset,
        replication=replication,
        resilience=config.resilience,
        gray_seed=config.seed,
        tracer=tracer,
    )


class FleetPricer(Pricer):
    """Prices the operations of a cluster deployment from its reported placement.

    Every node is an independent origin with its own capacity: one slot per
    shard primary, and one per replica when replication is on (replica
    reads consume the replica's capacity -- that is the read scale-out).
    """

    def __init__(
        self, cluster: "QuaestorCluster", topology, clock, origin_capacity: float, tracer=None
    ) -> None:
        super().__init__(topology, clock, origin_capacity, tracer)
        self._cluster = cluster
        self._groups = cluster.groups
        self._gray = cluster.gray
        self._runtime = cluster.resilience_runtime
        self._member_fetches = 0

    def read(self, level: str, key: Optional[str], extra_levels: Sequence[str]) -> float:
        price = self.level
        latency = price(level, key)
        for extra_level in extra_levels:
            latency += price(extra_level, None)
        runtime = self._runtime
        if runtime is not None and runtime.touched:
            return self._settle(runtime, latency, level)
        self.markers = NO_MARKERS
        return latency

    def write(self, level: str) -> float:
        if level == ERROR_LEVEL:
            latency = Pricer.write(self, level)
        else:
            shard_id, node_id = self._cluster.write_placement
            latency = Pricer.write(self, level, node_id)
            gray = self._gray
            if gray.active:
                factor = gray.slow_factor(shard_id, node_id)
                inflated = latency * factor if factor > 1.0 else latency
                if self.tracer is not None and inflated != latency:
                    self.tracer.cost("gray.slow", inflated - latency)
                latency = inflated
        runtime = self._runtime
        if runtime is not None and runtime.touched:
            return self._settle(runtime, latency, level)
        self.markers = NO_MARKERS
        return latency

    def origin(self, latency: float, key: Optional[str]) -> float:
        """Queue an origin answer at the node(s) that served it, then slow it.

        A record read queues at the node the cluster reports, a scatter at
        every live primary it iterated (the fan-out completes when the
        slowest shard answers, but each shard's capacity is consumed), and a
        member fetch (``key`` ``None``) round-robin.  While a gray condition
        is in force, a record read slows by its serving node's factor and may
        hedge; everything else by the worst live primary's factor (hedging
        per-shard sub-queries is not modelled).
        """
        record = key is not None and key.startswith("record:")
        if record:
            shard_id, node_id = self._cluster.read_placement
            wait = self.origin_wait(node_id)
        elif key is None:
            # A member fetch queues round-robin over the shards' serving
            # nodes, matching the fetches' uniform hash placement in
            # expectation.  The node index divides the counter by the shard
            # count so that shard and node rotations do not lock step and
            # starve some nodes.
            self._member_fetches += 1
            num_shards = len(self._groups)
            serving = self._groups[self._member_fetches % num_shards].serving_node_ids()
            wait = self.origin_wait(serving[(self._member_fetches // num_shards) % len(serving)])
        else:
            wait = 0.0
            for _shard_id, primary_id in self._cluster.scatter_placement:
                primary_wait = self.origin_wait(primary_id)
                if primary_wait > wait:
                    wait = primary_wait
        tracer = self.tracer
        if tracer is not None and wait > 0.0:
            tracer.cost("queue.origin", wait)
        latency += wait
        gray = self._gray
        if not gray.active:
            return latency
        if record:
            factor = gray.slow_factor(shard_id, node_id)
            if factor <= 1.0:
                return latency
            inflated = self._hedge(latency * factor, shard_id, node_id)
        else:
            if key is None:
                primaries = [
                    (group.shard_id, group.primary_node.node_id)
                    for group in self._groups
                    if group.primary_node.alive
                ]
            else:
                primaries = self._cluster.scatter_placement
            factor = 1.0
            for primary_shard, primary_id in primaries:
                node_factor = gray.slow_factor(primary_shard, primary_id)
                if node_factor > factor:
                    factor = node_factor
            inflated = latency * factor if factor > 1.0 else latency
        if tracer is not None and inflated != latency:
            tracer.cost("gray.slow", inflated - latency)
        return inflated

    def _hedge(self, latency: float, shard_id: int, node_id: str) -> float:
        """Price a hedged read: a second copy to the next serving replica.

        The hedge fires after the policy's analytic p-quantile delay; the
        faster of the slowed original and ``delay + alternative replica's
        latency`` wins.  Only reached while a gray slow factor inflates the
        read, so the extra latency draw cannot perturb clean runs.
        """
        runtime = self._runtime
        if runtime is None or runtime.config.hedge is None:
            return latency
        serving = self._groups[shard_id].serving_node_ids()
        if len(serving) < 2:
            return latency
        topology = self.topology
        delay = runtime.config.hedge.delay(topology.origin_round_trip)
        if latency <= delay:
            return latency
        try:
            index = serving.index(node_id)
        except ValueError:
            index = 0
        alt_node = serving[(index + 1) % len(serving)]
        alt_factor = self._gray.slow_factor(shard_id, alt_node)
        alt_latency = delay + topology.read_latency("origin") * alt_factor
        self.hedged_reads += 1
        runtime.trace.hedged = True
        if alt_latency < latency:
            self.hedge_wins += 1
            return alt_latency
        return latency

    def _settle(self, runtime, latency: float, level: str) -> float:
        """Convert the touched per-request resilience trace into latency.

        Each retry round trip pays a fresh origin round-trip sample, backoff
        waits are added verbatim, and a request the breaker rejected before
        any network attempt costs nothing at all (the fast-fail is the whole
        point of the breaker).  A trace nothing touched is not even taken
        (the callers check): no draw, no float operation.
        """
        trace = runtime.take_trace()
        if trace.empty:
            self.markers = NO_MARKERS
            return latency
        self.markers = (trace.hedged, trace.extra_round_trips > 0, trace.fast_failed)
        tracer = self.tracer
        if (
            trace.fast_failed
            and trace.extra_round_trips == 0
            and (level == ERROR_LEVEL or level == DEGRADED_LEVEL)
        ):
            if tracer is not None and latency != 0.0:
                # The breaker refused before any network attempt: the
                # discovery round trip priced above was never paid, so the
                # attribution carries the compensating negative component.
                tracer.cost("resilience.fast_fail", -latency)
            latency = 0.0
        latency += trace.backoff_s
        if tracer is not None:
            if trace.backoff_s:
                tracer.cost("resilience.backoff", trace.backoff_s)
            if trace.hedged:
                tracer.cost("resilience.hedge", 0.0)
        if trace.extra_round_trips:
            rtt = self.rtt
            retry_cost = 0.0
            for _ in range(trace.extra_round_trips):
                step = rtt()
                latency += step
                retry_cost += step
            if tracer is not None:
                tracer.cost("resilience.retry", retry_cost)
        return latency
