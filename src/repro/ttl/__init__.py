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

Two baselines from the related-work discussion (a static TTL and the Alex
protocol) are provided for the ablation benchmark, and every family is
registered by name in :mod:`repro.ttl.spec` so deployments select one via
:class:`TTLEstimatorSpec`.  ``tests/oracles/test_ttl_calibration.py`` checks
the issued record TTLs against the Poisson model's quantile.
"""

from __future__ import annotations

from repro.ttl.base import TTLBounds, TTLEstimator
from repro.ttl.write_rate import WriteRateSampler
from repro.ttl.poisson import poisson_quantile_ttl
from repro.ttl.ewma import EwmaTracker
from repro.ttl.estimator import QuaestorTTLEstimator
from repro.ttl.static import StaticTTLEstimator
from repro.ttl.alex import AlexTTLEstimator
from repro.ttl.spec import (
    DEFAULT_ESTIMATOR,
    ESTIMATOR_NAMES,
    TTLEstimatorSpec,
)

__all__ = [
    "TTLBounds",
    "TTLEstimator",
    "WriteRateSampler",
    "poisson_quantile_ttl",
    "EwmaTracker",
    "QuaestorTTLEstimator",
    "StaticTTLEstimator",
    "AlexTTLEstimator",
    "TTLEstimatorSpec",
    "DEFAULT_ESTIMATOR",
    "ESTIMATOR_NAMES",
]
