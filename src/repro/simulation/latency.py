"""Latency models for the network paths in a Quaestor deployment.

The EC2 experiments in the paper place the workload generators in Northern
California and the Quaestor/MongoDB/InvaliDB deployment in Ireland, giving a
mean wide-area round-trip of ~145 ms; the Fastly CDN edge answers in ~4 ms and
client-cache hits are effectively free.  These constants are the defaults of
:class:`NetworkTopology`; every latency can also carry Gaussian jitter.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Optional


#: First-load round-trip latencies (seconds) from the Figure 1 regions to an
#: EU-hosted origin -- representative public-internet numbers used to model
#: the provider comparison when no CDN edge is involved.
REGION_RTT_SECONDS: Dict[str, float] = {
    "Frankfurt": 0.030,
    "California": 0.150,
    "Sydney": 0.290,
    "Tokyo": 0.230,
}


#: ``random.Random.gauss``'s angle factor, computed the same way.
_TWO_PI = 2.0 * math.pi


@dataclass
class LatencyModel:
    """A latency source: a mean with optional Gaussian jitter around it.

    A sample is ``random.gauss(mean, jitter)`` clamped at ``minimum``.
    :meth:`sample` runs ``random.gauss``'s Box--Muller steps itself (no
    ``gauss`` frame), keeping the pair's spare on the model -- it is pickled
    with it and dropped by :meth:`reseed` -- so the stream is exactly
    ``max(minimum, Random(seed).gauss(mean, jitter))``.
    """

    mean: float
    jitter: float = 0.0
    minimum: float = 0.0
    _rng: random.Random = field(default_factory=lambda: random.Random(17), repr=False)

    def __post_init__(self) -> None:
        for name in ("mean", "jitter", "minimum"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
            setattr(self, name, float(value))  # every sample is a float
        self._fixed = max(self.minimum, self.mean)
        self._spare: Optional[float] = None

    def sample(self) -> float:
        """Draw one latency sample (mean when jitter is zero)."""
        if self.jitter == 0.0:
            return self._fixed
        z = self._spare
        if z is None:
            uniform = self._rng.random
            x2pi = uniform() * _TWO_PI
            g2rad = math.sqrt(-2.0 * math.log(1.0 - uniform()))
            # The pair (cos * g2rad, sin * g2rad) is the point at radius
            # g2rad and angle x2pi: one rect() call, the same products.
            pair = cmath.rect(g2rad, x2pi)
            z = pair.real
            self._spare = pair.imag
        else:
            self._spare = None
        value = self.mean + z * self.jitter
        minimum = self.minimum
        return value if value > minimum else minimum

    def reseed(self, seed: int) -> None:
        """Reset the jitter stream (used to make experiments reproducible)."""
        self._rng = random.Random(seed)
        self._spare = None


@dataclass
class NetworkTopology:
    """All network paths the simulator needs, with paper-calibrated defaults."""

    #: Client-cache (browser) hits complete without network involvement.
    client_cache_hit: LatencyModel = field(default_factory=lambda: LatencyModel(0.0))
    #: Round trip between end device and the nearest CDN edge.
    cdn_hit: LatencyModel = field(default_factory=lambda: LatencyModel(0.004, jitter=0.001))
    #: Wide-area round trip between end device and the origin (DBaaS).
    origin_round_trip: LatencyModel = field(
        default_factory=lambda: LatencyModel(0.145, jitter=0.005, minimum=0.050)
    )
    #: Server-side processing time for a cache miss (query execution etc.).
    server_processing: LatencyModel = field(default_factory=lambda: LatencyModel(0.005, jitter=0.002))
    #: Additional processing for write operations (DB write + replication).
    write_processing: LatencyModel = field(default_factory=lambda: LatencyModel(0.008, jitter=0.002))
    #: Delay between a write being acknowledged and CDN purges taking effect.
    invalidation_delay: LatencyModel = field(default_factory=lambda: LatencyModel(0.050, jitter=0.010))
    #: Asynchronous log-shipping delay between a primary acknowledging a
    #: write and the entry becoming visible on a replica (intra-region).
    replication_lag: LatencyModel = field(
        default_factory=lambda: LatencyModel(0.020, jitter=0.005, minimum=0.001)
    )

    def read_latency(self, level: str) -> float:
        """Latency of a read/query answered at ``level`` (client/cdn/origin)."""
        if level == "client":
            return self.client_cache_hit.sample()
        if level == "cdn":
            return self.cdn_hit.sample()
        if level == "origin":
            return self.origin_round_trip.sample() + self.server_processing.sample()
        raise ValueError(f"unknown cache level {level!r}")

    def reseed(self, seed: int) -> None:
        """Reseed all jitter streams deterministically.

        ``replication_lag`` comes last so the derived seeds of the
        pre-replication streams are unchanged (seeded experiments from before
        the replication layer reproduce value-identically).
        """
        for offset, model in enumerate(
            (
                self.client_cache_hit,
                self.cdn_hit,
                self.origin_round_trip,
                self.server_processing,
                self.write_processing,
                self.invalidation_delay,
                self.replication_lag,
            )
        ):
            model.reseed(seed + offset)
