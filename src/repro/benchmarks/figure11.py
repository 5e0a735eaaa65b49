"""Figure 11: CDF of Quaestor's TTL estimates versus the true TTLs.

The *true* TTL of a cached query result is the time it could have been cached
until it was invalidated (invalidation timestamp minus the previous read
timestamp).  The harness wraps the server's TTL estimator to record every
estimate it hands out and every actual TTL it observes, runs the read-heavy
workload with a 1 % write rate, and reports both empirical CDFs.  The paper's
observation is that the two distributions agree for the bulk of the mass and
diverge on the unpredictable long tail.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.benchmarks.harness import BenchmarkScale, SMALL_SCALE, simulation_config
from repro.metrics.histogram import Histogram
from repro.benchmarks.report import ExperimentReport
from repro.simulation.simulator import Simulator
from repro.ttl.base import TTLEstimator
from repro.workloads.generator import WorkloadSpec


class RecordingTTLEstimator(TTLEstimator):
    """Decorator around a TTL estimator that records estimates and true TTLs.

    The comparison is made *per invalidation*, exactly like the paper defines
    the true TTL: when a cached query result is invalidated, the time it was
    actually cacheable (``actual_ttl``) is paired with the TTL the estimator
    had assigned to that query.  Queries that are never invalidated contribute
    to neither CDF (their true TTL is unobservable within the experiment).
    """

    def __init__(self, inner: TTLEstimator) -> None:
        super().__init__(inner.bounds)
        self.inner = inner
        self.estimated_ttls: List[float] = []
        self.true_ttls: List[float] = []
        self._last_estimate: dict[str, float] = {}

    def estimate_record(self, record_key: str, now: float) -> float:
        return self.inner.estimate_record(record_key, now)

    def estimate_query(self, query_key: str, member_record_keys, now: float) -> float:
        estimate = self.inner.estimate_query(query_key, member_record_keys, now)
        self._last_estimate[query_key] = estimate
        return estimate

    def observe_write(self, record_key: str, timestamp: float) -> None:
        self.inner.observe_write(record_key, timestamp)

    def observe_query_invalidation(self, query_key: str, actual_ttl: float, timestamp: float) -> None:
        estimate = self._last_estimate.get(query_key)
        if estimate is not None:
            self.estimated_ttls.append(estimate)
            self.true_ttls.append(actual_ttl)
        self.inner.observe_query_invalidation(query_key, actual_ttl, timestamp)


def run_figure11(
    scale: BenchmarkScale = SMALL_SCALE,
    connections: Optional[int] = None,
    cdf_points: Optional[Sequence[float]] = None,
    max_operations: Optional[int] = None,
) -> ExperimentReport:
    """Regenerate the Figure 11 CDF comparison."""
    # Few connections stretch the same operation budget over a long virtual
    # time span (the paper simulates 10 minutes), which is what the TTL
    # estimator needs to observe realistic write rates and invalidations.  A
    # denser dataset concentrates writes so per-record rates are learnable.
    connections = connections if connections is not None else scale.num_clients
    dataset = scale.dataset_spec(
        documents_per_table=max(100, scale.documents_per_table // 3)
    )
    config = simulation_config(
        scale,
        connections,
        workload=WorkloadSpec.with_update_rate(0.01),
        dataset=dataset,
        duration=600.0,
        max_operations=max_operations if max_operations is not None else 2 * scale.max_operations,
        seed=202,
    )
    simulator = Simulator(config)
    recorder = RecordingTTLEstimator(simulator.server.ttl_estimator)
    simulator.server.ttl_estimator = recorder
    simulator.run()

    estimated = Histogram("estimated-ttl")
    estimated.record_many(recorder.estimated_ttls)
    true_ttls = Histogram("true-ttl")
    true_ttls.record_many(recorder.true_ttls)

    points = (
        list(cdf_points)
        if cdf_points is not None
        else [1, 5, 10, 20, 40, 60, 90, 120, 180, 240, 300, 420, 600]
    )
    report = ExperimentReport(
        experiment="Figure 11",
        description="CDF of Quaestor's estimated query TTLs vs the true (observed) TTLs.",
        columns=["ttl_seconds", "estimated_cdf", "true_cdf"],
    )
    estimated_cdf = dict(estimated.cdf(points))
    true_cdf = dict(true_ttls.cdf(points))
    for point in points:
        report.add_row(
            ttl_seconds=point,
            estimated_cdf=estimated_cdf.get(point, 0.0),
            true_cdf=true_cdf.get(point, 0.0),
        )
    report.add_note(
        f"estimates recorded: {len(recorder.estimated_ttls)}, invalidations observed: "
        f"{len(recorder.true_ttls)}"
    )
    report.add_note(
        "Paper shape: the two CDFs track each other over most of the distribution and "
        "deviate on the long tail of rarely updated queries."
    )
    return report
