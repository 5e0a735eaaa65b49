"""Per-cluster resilience state: breakers, retry RNG, request traces.

The :class:`ResilienceRuntime` is the mutable counterpart of the frozen
:class:`~repro.resilience.policies.ResilienceConfig`: one instance lives on
the :class:`~repro.cluster.QuaestorCluster` and owns

* the seeded RNG substream all retry jitter draws from,
* the lazily created per-shard (``"shard:N"``) and per-replica
  (``"sN:nM"``) :class:`~repro.resilience.policies.CircuitBreaker`\\ s, and
* the :class:`RequestTrace` the simulator drains after every operation to
  convert retries/backoff into latency samples (the cluster itself is
  synchronous; virtual time only moves in the simulator), and
* ``attempts``, the drained traces' tally by kind (``retry``,
  ``fast_fail``, ``hedge``).

Nothing here draws randomness or mutates state unless a failure actually
happens, which is the load-bearing property behind the golden-summary
value-identity guarantee for no-fault runs.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.clock import Clock
from repro.metrics.counters import Counter
from repro.resilience.policies import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    DeadlineBudget,
    ResilienceConfig,
)

__all__ = ["RequestTrace", "ResilienceRuntime"]


class RequestTrace:
    """What the resilience layer did while serving one request.

    The cluster accumulates backoff waits and extra network attempts here;
    the simulator drains the trace (:meth:`ResilienceRuntime.take_trace`)
    and turns it into latency: each ``extra_round_trips`` pays an origin
    round-trip sample, ``backoff_s`` is added verbatim, and a
    ``fast_failed`` request that never reached the network pays nothing.
    """

    __slots__ = ("backoff_s", "extra_round_trips", "fast_failed", "hedged")

    def __init__(self) -> None:
        self.backoff_s = 0.0
        self.extra_round_trips = 0
        self.fast_failed = False
        self.hedged = False

    @property
    def empty(self) -> bool:
        return (
            self.backoff_s == 0.0
            and self.extra_round_trips == 0
            and not self.fast_failed
            and not self.hedged
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestTrace(backoff_s={self.backoff_s:.4f}, "
            f"extra_round_trips={self.extra_round_trips}, "
            f"fast_failed={self.fast_failed})"
        )


class ResilienceRuntime:
    """Mutable resilience state for one cluster (see module docstring)."""

    __slots__ = (
        "config",
        "clock",
        "rng",
        "read_attempts",
        "write_attempts",
        "_breakers",
        "_trace",
        "touched",
        "attempts",
    )

    def __init__(self, config: ResilienceConfig, clock: Clock) -> None:
        self.config = config
        self.clock = clock
        self.rng = random.Random(config.seed)
        retry = config.retry
        #: Attempts per request (the config is frozen, so fixed per runtime).
        self.read_attempts = retry.max_attempts if retry is not None else 1
        # Writes share the read budget; idempotency is enforced by *where*
        # the retry loop sits (pre-admission only), not by a smaller count.
        self.write_attempts = self.read_attempts
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._trace = RequestTrace()
        #: Whether :attr:`trace` was handed out since the last
        #: :meth:`take_trace`; an untouched trace is empty, so a request
        #: the layer did nothing for drains without looking at it.
        self.touched = False
        #: What drained traces did, by kind: extra round trips (``retry``),
        #: fast-failed and hedged requests.  Counted once per drained request,
        #: so they differ from the cluster's per-shard, per-attempt counters.
        self.attempts = Counter()

    # -- retry / deadline ---------------------------------------------------------------

    def backoff(self, attempt: int) -> float:
        retry = self.config.retry
        if retry is None:
            return 0.0
        return retry.backoff(attempt, self.rng)

    def new_deadline(self) -> Optional[DeadlineBudget]:
        deadline = self.config.request_deadline
        if deadline is None:
            return None
        return DeadlineBudget(deadline)

    # -- breakers -----------------------------------------------------------------------

    def breaker(self, key: str) -> Optional[CircuitBreaker]:
        """The breaker for ``key`` (``"shard:N"`` or a node id), lazily built."""
        policy = self.config.breaker
        if policy is None:
            return None
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(policy, self.clock)
            self._breakers[key] = breaker
        return breaker

    def allow(self, key: str) -> bool:
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self.breaker(key)
            if breaker is None:
                return True
        return breaker.allow()

    def record_success(self, key: str) -> None:
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self.breaker(key)
            if breaker is None:
                return
        breaker.record_success()

    def record_failure(self, key: str) -> None:
        breaker = self.breaker(key)
        if breaker is not None:
            breaker.record_failure()

    def breaker_state_counts(self) -> Dict[str, float]:
        """Breaker-state levels for :func:`repro.cluster.metrics.cluster_statistics`."""
        counts = {BREAKER_CLOSED: 0, BREAKER_OPEN: 0, BREAKER_HALF_OPEN: 0}
        for breaker in self._breakers.values():
            counts[breaker.state] += 1
        return {
            "resilience_breakers": float(len(self._breakers)),
            "resilience_breakers_closed": float(counts[BREAKER_CLOSED]),
            "resilience_breakers_open": float(counts[BREAKER_OPEN]),
            "resilience_breakers_half_open": float(counts[BREAKER_HALF_OPEN]),
        }

    # -- request traces -----------------------------------------------------------------

    @property
    def trace(self) -> RequestTrace:
        """The current request's trace, for writing (marks it touched)."""
        self.touched = True
        return self._trace

    def take_trace(self) -> RequestTrace:
        """Return the current trace and reset it (no-op when empty)."""
        self.touched = False
        trace = self._trace
        if not trace.empty:
            self._trace = RequestTrace()
            attempts = self.attempts.counts
            if trace.extra_round_trips:
                attempts["retry"] += trace.extra_round_trips
            if trace.fast_failed:
                attempts["fast_fail"] += 1
            if trace.hedged:
                attempts["hedge"] += 1
        return trace
