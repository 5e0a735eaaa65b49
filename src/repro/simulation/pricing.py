"""Pricing one simulated operation: the latency of the level that answered it.

A read or query costs the latency of the cache level that answered it; an
answer from the origin also waits for a slot at the origin node whose
capacity it consumed, and so does every write.  :class:`Pricer` prices a
single server, whose one origin is slot ``0``.  A cluster deployment builds
:class:`repro.simulation.fleet.FleetPricer` instead, which charges the
node(s) the cluster reports as having served each request; a single server
never builds it, so no single-server path consults fleet state.

Every price records its cost spans on the attached tracer, in the order the
latency is summed.  With no tracer, a single server's loop prices a read
inline from :attr:`Pricer.samplers` and :attr:`Pricer.fixed_prices`; this
class then prices only its id-list results and its writes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.client.sdk import DEGRADED_LEVEL, ERROR_LEVEL, SESSION_LEVEL
from repro.clock import Clock
from repro.simulation.latency import NetworkTopology

#: Cost-span name of a request answered at each level other than the origin.
_NET_STAGE = {
    SESSION_LEVEL: "net.session",
    ERROR_LEVEL: "net.probe",
    DEGRADED_LEVEL: "net.probe",
    "client": "net.client",
    "cdn": "net.cdn",
}
#: ``(hedged, retried, fast_failed)`` of an operation no resilience layer touched.
NO_MARKERS = (False, False, False)


class Pricer:
    """Prices the operations of a single-server deployment."""

    #: History markers of the operation just priced: a single server has no
    #: resilience layer, so none is ever set.
    markers = NO_MARKERS
    hedged_reads = 0
    hedge_wins = 0

    def __init__(
        self, topology: NetworkTopology, clock: Clock, origin_capacity: float, tracer=None
    ) -> None:
        self.topology = topology
        self.clock = clock
        self.tracer = tracer
        self.rtt = rtt = topology.origin_round_trip.sample
        self.processing = topology.server_processing.sample
        self._write_processing = topology.write_processing.sample
        #: What an answer at each level other than the origin costs: a
        #: constant where the latency has no jitter (no draw; session state
        #: needs no network), else one draw.  A failed request and a
        #: stale-if-error serve pay the round trip that discovered the
        #: outage; no server processed them.
        self.fixed_prices: Dict[str, float] = {SESSION_LEVEL: 0.0}
        self.samplers = {ERROR_LEVEL: rtt, DEGRADED_LEVEL: rtt}
        for level, model in (("client", topology.client_cache_hit), ("cdn", topology.cdn_hit)):
            if model.jitter == 0.0:
                self.fixed_prices[level] = model.sample()
            else:
                self.samplers[level] = model.sample
        #: Next free slot per origin node, keyed by node token and created on
        #: first use: requests are spaced by the node's capacity.
        self._slots: Dict[object, float] = {}
        self._interval = 1.0 / origin_capacity

    def origin_wait(self, token: object) -> float:
        """Queueing delay at one origin node: requests spaced by its capacity."""
        now = self.clock.now()
        slots = self._slots
        slot = slots[token] if token in slots else 0.0
        if slot > now:
            slots[token] = slot + self._interval
            return slot - now
        slots[token] = now + self._interval
        return 0.0

    def read(self, level: str, key: Optional[str], extra_levels: Sequence[str]) -> float:
        """A read or query answered at ``level``, plus each id-list member fetch."""
        price = self.level
        latency = price(level, key)
        for extra_level in extra_levels:
            latency += price(extra_level, None)
        return latency

    def level(self, level: str, key: Optional[str]) -> float:
        """Latency of one request answered at ``level`` (``key`` ``None``: a member fetch)."""
        tracer = self.tracer
        if level == "origin":
            latency = self.rtt() + self.processing()
            if tracer is not None:
                tracer.cost("net.origin", latency)
            return self.origin(latency, key)
        fixed = self.fixed_prices
        latency = fixed[level] if level in fixed else self.samplers[level]()
        if tracer is not None:
            tracer.cost(_NET_STAGE[level], latency)
        return latency

    def origin(self, latency: float, key: Optional[str]) -> float:
        """Add the origin's queueing to an origin answer's network latency."""
        wait = self.origin_wait(0)
        if wait > 0.0 and self.tracer is not None:
            self.tracer.cost("queue.origin", wait)
        return latency + wait

    def write(self, level: str, node: object = 0) -> float:
        """Latency of a write; an applied one also queues at its origin ``node``.

        A write the origin refused (``ERROR_LEVEL``) paid the round trip that
        found its primary down and consumed no capacity.
        """
        tracer = self.tracer
        base = self.rtt() + self._write_processing()
        if level == ERROR_LEVEL:
            if tracer is not None:
                tracer.cost("net.probe", base)
            return base
        wait = self.origin_wait(node)
        if tracer is not None:
            tracer.cost("net.write", base)
            if wait > 0.0:
                tracer.cost("queue.origin", wait)
        return base + wait
