"""Benchmark harnesses reproducing every table and figure of the paper.

Each module regenerates the data series of one evaluation artefact:

================  ==========================================================
Module            Paper artefact
================  ==========================================================
``figure1``       Fig. 1  -- page load times across BaaS providers/regions
``figure8``       Fig. 8a-f -- throughput, latency, hit rates, histogram
``figure9``       Fig. 9  -- hit rates vs update rate / EBF refresh interval
``figure10``      Fig. 10 -- stale read/query rates vs EBF refresh interval
``figure11``      Fig. 11 -- CDF of estimated vs true TTLs
``figure12``      Fig. 12 -- InvaliDB throughput scalability
``table1``        Tab. 1  -- latency for increasing document counts
``ablations``     additional design-choice ablations (TTL estimators,
                  representations, EBF refresh intervals)
``cluster_scaling``  scale-out experiment for the sharded deployment layer
                  (:mod:`repro.cluster`); not a paper artefact
================  ==========================================================

Every harness accepts a :class:`BenchmarkScale` so the same code can run a
laptop-friendly configuration (the default, used by the pytest-benchmark
targets) or a configuration much closer to the paper's EC2 setup.  Every run's
config comes from :func:`repro.benchmarks.harness.simulation_config`, and each
distinct cell runs once (Figure 8a-c share one sweep, 8d-e another).
"""

from __future__ import annotations

from repro.benchmarks.harness import BenchmarkScale, SMALL_SCALE, PAPER_SCALE

__all__ = [
    "BenchmarkScale",
    "SMALL_SCALE",
    "PAPER_SCALE",
]
