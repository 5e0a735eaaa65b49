"""Statistical TTL estimation (Section 4.2 of the paper).

A cached record or query result should ideally expire right before its next
update, maximising cache hit rates while avoiding unnecessary invalidations.
Quaestor's estimator uses a dual strategy:

* an initial estimate from a Poisson model of incoming writes -- per-record
  write rates are sampled, the result set's time-to-next-write is the minimum
  of exponentials, and the TTL is read off the quantile function, and
* an exponentially weighted moving average (EWMA) refinement for queries,
  nudging the estimate towards the *actual* TTL observed whenever a cached
  query result is invalidated.

Baselines from the related-work discussion (static TTLs, the Alex protocol,
an Alici-style adaptive scheme, a pure-Poisson and a mean-interarrival
estimator) are provided for the ablation benchmarks, and every family is
registered by name in :mod:`repro.ttl.spec` so deployments select one via
:class:`TTLEstimatorSpec`.  :mod:`repro.ttl.bakeoff` sweeps the whole registry
across stationary / drifting / bursty write processes end-to-end through the
simulator (``make bench-ttl``, results in ``BENCH_ttl.json``).
"""

from __future__ import annotations

from repro.ttl.base import TTLBounds, TTLEstimator
from repro.ttl.write_rate import WriteRateSampler, WriteRateTTLEstimator
from repro.ttl.poisson import PoissonTTLEstimator, poisson_quantile_ttl
from repro.ttl.ewma import EwmaTracker
from repro.ttl.estimator import QuaestorTTLEstimator
from repro.ttl.static import StaticTTLEstimator
from repro.ttl.alex import AlexTTLEstimator
from repro.ttl.adaptive import AdaptiveTTLEstimator
from repro.ttl.spec import (
    DEFAULT_ESTIMATOR,
    ESTIMATOR_NAMES,
    TTLEstimatorSpec,
    build_estimator,
)

__all__ = [
    "TTLBounds",
    "TTLEstimator",
    "WriteRateSampler",
    "WriteRateTTLEstimator",
    "poisson_quantile_ttl",
    "PoissonTTLEstimator",
    "EwmaTracker",
    "QuaestorTTLEstimator",
    "StaticTTLEstimator",
    "AlexTTLEstimator",
    "AdaptiveTTLEstimator",
    "TTLEstimatorSpec",
    "build_estimator",
    "DEFAULT_ESTIMATOR",
    "ESTIMATOR_NAMES",
]
