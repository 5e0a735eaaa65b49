"""Quaestor reproduction: query web caching for Database-as-a-Service providers.

This package is a from-scratch reproduction of the system described in
*Quaestor: Query Web Caching for Database-as-a-Service Providers* (VLDB 2017).
It contains the paper's primary contribution (the Expiring Bloom Filter
cache-coherence scheme, the InvaliDB streaming invalidation pipeline, and the
statistical TTL estimator) together with every substrate the system depends
on: a MongoDB-like document store, Redis-like message queues, HTTP
expiration/invalidation web caches, a discrete-event simulation framework,
YCSB-style workload generators and a benchmark harness reproducing every
table and figure in the paper's evaluation.

The most convenient entry points are:

* :class:`repro.core.QuaestorServer` -- the DBaaS middleware.
* :class:`repro.client.QuaestorClient` -- the client SDK with tunable
  consistency (Delta-atomicity via Expiring Bloom Filter refreshes).
* :class:`repro.cluster.QuaestorCluster` -- the sharded multi-server
  deployment (consistent-hash routing, scatter/gather queries, batched
  write propagation) behind the :class:`repro.cluster.ClusterClient` facade.
* :class:`repro.simulation.Simulator` -- the Monte Carlo experiment driver.
* :mod:`repro.benchmarks` -- per-figure/per-table experiment harnesses.
"""

from __future__ import annotations

from repro.clock import SystemClock, VirtualClock
from repro.errors import (
    CapacityExceededError,
    DocumentNotFoundError,
    InvalidQueryError,
    QuaestorError,
    TransactionAbortedError,
    UnsupportedOperationError,
)

__version__ = "1.0.0"

__all__ = [
    "SystemClock",
    "VirtualClock",
    "QuaestorError",
    "InvalidQueryError",
    "DocumentNotFoundError",
    "UnsupportedOperationError",
    "CapacityExceededError",
    "TransactionAbortedError",
    "__version__",
]
