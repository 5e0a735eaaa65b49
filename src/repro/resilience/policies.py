"""Resilience policies: deadlines, retries, breakers, hedging, stale-if-error.

Quaestor's pitch (journals_pvldb_GessertSWWYR17) is that Δ-bounded stale
cached reads keep serving users when the origin misbehaves.  This module
supplies the client/edge-side machinery that makes that degradation
*graceful* instead of accidental:

* :class:`DeadlineBudget` -- a per-request time budget propagated through
  the scatter/gather path, so retries and hedges never let one request
  consume unbounded work.
* :class:`RetryPolicy` -- capped exponential backoff with *full jitter*
  drawn from a seeded RNG substream.  Idempotency-aware by convention:
  reads and scatter queries retry freely, writes retry only on failures
  that occur *before* the primary admits the mutation (a lost ack after
  apply must surface as an error, re-sending would double-apply).
* :class:`BreakerPolicy` / :class:`CircuitBreaker` -- per-shard and
  per-replica breakers with the classic closed -> open -> half-open state
  machine.  Time comes exclusively from the simulation
  :class:`~repro.clock.Clock`, so probe timing is deterministic.
* :class:`HedgePolicy` -- after a p-quantile delay a hedged copy of an
  origin read goes to another replica and the first response wins.  The
  trigger delay is computed analytically from the latency model (inverse
  CDF), not sampled, so attaching the policy draws no RNG.
* :class:`StaleIfErrorPolicy` -- when a shard is breaker-open or retries
  are exhausted, the SDK may serve its cached-but-expired copy with an
  explicit ``stale-if-error`` marker, bounded by the paper's Δ staleness
  budget.

Everything here is deterministic: randomness is confined to the
:class:`~repro.resilience.runtime.ResilienceRuntime`'s seeded substream,
and no policy draws from the RNG unless a failure actually occurred --
which is what keeps no-fault runs value-identical to the pinned golden
summaries with resilience enabled at defaults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Optional

from repro.clock import Clock
from repro.errors import ConfigurationError

__all__ = [
    "DeadlineBudget",
    "RetryPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "HedgePolicy",
    "StaleIfErrorPolicy",
    "ResilienceConfig",
]


class DeadlineBudget:
    """A per-request time budget charged as retries and hedges accrue.

    The discrete-event simulator serves a request synchronously -- virtual
    time does not advance while the cluster loops over attempts -- so the
    deadline cannot be enforced by comparing wall clocks.  Instead every
    would-be network attempt *charges* its estimated cost against the
    budget before it is issued; once the remaining budget cannot cover the
    next attempt, the request fails fast instead of retrying forever.  The
    same budget object travels through scatter/gather (one budget per
    query, shared by every shard's retries) and reaches each shard's
    ``QuaestorServer.prepare_shard_query``, which skips the admission probe
    once it is spent.
    """

    __slots__ = ("deadline", "spent")

    def __init__(self, deadline: float) -> None:
        if deadline <= 0:
            raise ConfigurationError("deadline must be positive")
        self.deadline = float(deadline)
        self.spent = 0.0

    @property
    def exhausted(self) -> bool:
        return self.spent >= self.deadline

    def allows(self, cost: float) -> bool:
        """Would charging ``cost`` still fit inside the deadline?"""
        return self.spent + cost <= self.deadline

    def charge(self, cost: float) -> None:
        if cost < 0:
            raise ConfigurationError("deadline charge must be non-negative")
        self.spent += cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeadlineBudget(deadline={self.deadline}, spent={self.spent:.4f})"


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with full jitter.

    ``backoff(attempt, rng)`` draws uniformly from
    ``[0, min(max_delay, base_delay * 2**attempt)]`` -- the "full jitter"
    scheme, which decorrelates retry storms while keeping the expected
    wait exponential.  The RNG is the resilience runtime's seeded
    substream, so a failed request consumes exactly one draw per retry and
    a run with no failures consumes none.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 0.8

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("retry delays must be non-negative")
        if self.max_delay < self.base_delay:
            raise ConfigurationError("max_delay must be >= base_delay")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Jittered delay before retry number ``attempt + 1`` (0-based)."""
        ceiling = min(self.max_delay, self.base_delay * (2.0**attempt))
        if ceiling <= 0:
            return 0.0
        return rng.uniform(0.0, ceiling)


BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Tuning knobs for :class:`CircuitBreaker`.

    ``failure_threshold`` counts *consecutive* failures -- one success
    resets the streak -- so the breaker opens on hard outages (dead
    primary, persistent drops) rather than on a modestly flaky shard
    where retries still succeed.
    """

    failure_threshold: int = 8
    cooldown: float = 1.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be at least 1")
        if self.cooldown <= 0:
            raise ConfigurationError("cooldown must be positive")


class CircuitBreaker:
    """Closed -> open -> half-open breaker driven by the simulation clock.

    * **closed**: requests pass; ``failure_threshold`` consecutive
      failures trip it open.
    * **open**: requests fast-fail without touching the network until
      ``cooldown`` seconds of (virtual) time elapse.
    * **half-open**: the first ``allow()`` after the cooldown admits a
      probe request; its outcome either closes the breaker or re-opens it
      for another full cooldown.
    """

    __slots__ = (
        "policy",
        "_clock",
        "_state",
        "_consecutive_failures",
        "_opened_at",
        "_probe_inflight",
    )

    def __init__(self, policy: BreakerPolicy, clock: Clock) -> None:
        self.policy = policy
        self._clock = clock
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    @property
    def state(self) -> str:
        self._maybe_half_open()
        return self._state

    def _maybe_half_open(self) -> None:
        if (
            self._state == BREAKER_OPEN
            and self._clock.now() - self._opened_at >= self.policy.cooldown
        ):
            self._state = BREAKER_HALF_OPEN
            self._probe_inflight = False

    def allow(self) -> bool:
        """May a request go out right now?  (Half-open admits one probe.)"""
        if self._state == BREAKER_CLOSED:
            return True
        self._maybe_half_open()
        if self._state == BREAKER_OPEN:
            return False
        if self._state == BREAKER_HALF_OPEN:
            if self._probe_inflight:
                return False
            self._probe_inflight = True
        return True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._state = BREAKER_CLOSED
        self._probe_inflight = False

    def record_failure(self) -> None:
        self._maybe_half_open()
        if self._state == BREAKER_HALF_OPEN:
            # The probe failed: straight back to open for a fresh cooldown.
            self._state = BREAKER_OPEN
            self._opened_at = self._clock.now()
            self._probe_inflight = False
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.policy.failure_threshold:
            self._state = BREAKER_OPEN
            self._opened_at = self._clock.now()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker(state={self.state!r}, failures={self._consecutive_failures})"


@dataclass(frozen=True)
class HedgePolicy:
    """Hedged origin reads: fire a second copy after a p-quantile delay.

    The trigger delay is the ``quantile`` point of the origin round-trip
    latency model, computed analytically via the normal inverse CDF (the
    model's gauss jitter), *not* sampled -- so enabling hedging draws no
    RNG and cannot perturb seeded runs that never hedge.  A hedge is only
    issued for origin-level record reads on a shard whose gray slow factor
    exceeds 1 and that has at least two serving replicas; the faster of
    the original and the hedge wins.
    """

    quantile: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ConfigurationError("hedge quantile must be in (0, 1)")

    def delay(self, model) -> float:
        """Trigger delay derived from a latency model's analytic quantile."""
        jitter = getattr(model, "jitter", 0.0)
        mean = model.mean
        if jitter <= 0:
            return max(model.minimum, mean)
        point = NormalDist(mean, jitter).inv_cdf(self.quantile)
        return max(model.minimum, point)


@dataclass(frozen=True)
class StaleIfErrorPolicy:
    """Serve expired cache entries while the origin path is failing.

    ``max_staleness`` bounds how far past its freshness deadline an entry
    may be served, mirroring the paper's Δ staleness budget: a degraded
    read is still *bounded*-stale, just against a wider, explicitly
    surfaced bound.  Served results carry the ``stale-if-error`` level and
    a ``degraded`` marker so freshness accounting can never mistake one
    for a fresh cache hit.
    """

    max_staleness: float = 8.0

    def __post_init__(self) -> None:
        if self.max_staleness <= 0:
            raise ConfigurationError("max_staleness must be positive")

    def may_serve(self, age_past_expiry: float) -> bool:
        """Is an entry ``age_past_expiry`` seconds past ``fresh_until`` servable?"""
        return age_past_expiry <= self.max_staleness


@dataclass(frozen=True)
class ResilienceConfig:
    """The one knob: every policy in a single config object.

    Attach to :class:`~repro.simulation.SimulationConfig` (or directly to
    :class:`~repro.cluster.QuaestorCluster` / the SDK) to enable the
    resilience layer; ``None`` in its place is the one way to run without
    it.  Any sub-policy may be ``None`` to disable just that mechanism.
    ``assumed_round_trip`` is the nominal per-attempt cost charged against
    :class:`DeadlineBudget` -- virtual time does not advance inside a
    synchronous request, so deadline accounting uses this estimate rather
    than measured elapsed time.
    """

    seed: int = 1033
    request_deadline: Optional[float] = 2.0
    assumed_round_trip: float = 0.15
    retry: Optional[RetryPolicy] = field(default_factory=RetryPolicy)
    breaker: Optional[BreakerPolicy] = field(default_factory=BreakerPolicy)
    hedge: Optional[HedgePolicy] = field(default_factory=HedgePolicy)
    stale_if_error: Optional[StaleIfErrorPolicy] = field(default_factory=StaleIfErrorPolicy)

    def __post_init__(self) -> None:
        if self.request_deadline is not None and self.request_deadline <= 0:
            raise ConfigurationError("request_deadline must be positive when set")
        if self.assumed_round_trip <= 0:
            raise ConfigurationError("assumed_round_trip must be positive")
