"""Ablation benchmarks for the design choices called out in DESIGN.md.

Three ablations complement the paper's figures:

* **TTL estimation strategy** -- Quaestor's Poisson+EWMA estimator against the
  static-TTL straw man (Section 3) and the Alex protocol baseline (Section 7),
  measured by client query hit rate, stale rate and invalidation volume.
* **Result representation** -- forcing id-lists or object-lists against the
  cost-based choice (Section 4.2, "Representing Query Results").
* **EBF refresh interval** -- the latency/staleness trade-off knob exposed to
  clients (a compressed version of Figure 10 along the hit-rate axis).
"""

from __future__ import annotations

from typing import Optional

from repro.benchmarks.harness import BenchmarkScale, SMALL_SCALE, simulation_config
from repro.core.config import QuaestorConfig
from repro.benchmarks.report import ExperimentReport
from repro.simulation.simulator import Simulator
from repro.ttl.spec import TTLEstimatorSpec


def run_ttl_estimator_ablation(
    scale: BenchmarkScale = SMALL_SCALE, connections: Optional[int] = None
) -> ExperimentReport:
    """Compare TTL estimation strategies under the read-heavy workload.

    By default each client opens one connection: the offered load is low
    enough that the run spans tens of simulated seconds, so a 10 s static TTL
    expires and is told apart from a 120 s one.  Under the other ablations'
    load the run spans about two seconds and no static TTL ever expires.
    """
    connections = connections if connections is not None else scale.num_clients
    estimators = {
        "static-10s": TTLEstimatorSpec.of("static", ttl=10.0),
        "static-120s": TTLEstimatorSpec.of("static", ttl=120.0),
        "alex": TTLEstimatorSpec.of("alex"),
        "quaestor": TTLEstimatorSpec.of("quaestor"),
    }
    report = ExperimentReport(
        experiment="Ablation: TTL estimation",
        description="Client query hit rate, staleness and invalidation volume per TTL strategy.",
        columns=[
            "estimator",
            "client_query_hit_rate",
            "query_stale_rate",
            "query_invalidations",
            "mean_query_latency_ms",
        ],
    )
    spans = []
    for name, estimator in estimators.items():
        quaestor = QuaestorConfig(ttl_estimator=estimator)
        simulator = Simulator(simulation_config(scale, connections, seed=77, quaestor=quaestor))
        result = simulator.run()
        spans.append(simulator.clock.now())
        report.add_row(
            estimator=name,
            client_query_hit_rate=result.client_query_hit_rate,
            query_stale_rate=result.query_stale_rate,
            query_invalidations=result.server_statistics.get("query_invalidations", 0),
            mean_query_latency_ms=result.query_latency.mean * 1000.0,
        )
    report.add_note(
        "Expected: a low static TTL sacrifices hit rate, a high static TTL sacrifices "
        "freshness/invalidations; the adaptive estimator balances both."
    )
    report.add_note(
        f"Each run spans {min(spans):.1f}-{max(spans):.1f} simulated seconds "
        f"({connections} connections); a static TTL longer than that never expires."
    )
    return report


def run_representation_ablation(
    scale: BenchmarkScale = SMALL_SCALE, connections: Optional[int] = None
) -> ExperimentReport:
    """Compare id-list vs object-list vs the cost-based default."""
    connections = connections if connections is not None else scale.connection_steps[2]
    configurations = {
        # Forcing id-lists: no result is small enough for an object-list.
        "id-list": QuaestorConfig(object_list_max_size=0),
        # Forcing object-lists: every result is below the threshold.
        "object-list": QuaestorConfig(object_list_max_size=10_000),
        # Cost-based default.
        "cost-based": QuaestorConfig(),
    }
    report = ExperimentReport(
        experiment="Ablation: result representation",
        description="Effect of the query result representation on latency and invalidations.",
        columns=[
            "representation",
            "mean_query_latency_ms",
            "mean_read_latency_ms",
            "query_invalidations",
            "client_read_hit_rate",
        ],
    )
    for name, quaestor_config in configurations.items():
        config = simulation_config(scale, connections, seed=77, quaestor=quaestor_config)
        result = Simulator(config).run()
        report.add_row(
            representation=name,
            mean_query_latency_ms=result.query_latency.mean * 1000.0,
            mean_read_latency_ms=result.read_latency.mean * 1000.0,
            query_invalidations=result.server_statistics.get("query_invalidations", 0),
            client_read_hit_rate=result.client_read_hit_rate,
        )
    report.add_note(
        "Expected: id-lists add round-trips to assemble results (higher query latency) "
        "but suffer fewer invalidations; object-lists are the right default for the "
        "small result sets of the evaluation workload."
    )
    return report


def run_refresh_interval_ablation(
    scale: BenchmarkScale = SMALL_SCALE, connections: Optional[int] = None
) -> ExperimentReport:
    """Hit rate / staleness trade-off of the EBF refresh interval."""
    connections = connections if connections is not None else scale.connection_steps[2]
    report = ExperimentReport(
        experiment="Ablation: EBF refresh interval",
        description="Client hit rates and staleness for different Delta values.",
        columns=[
            "refresh_interval_s",
            "client_query_hit_rate",
            "query_stale_rate",
            "read_stale_rate",
        ],
    )
    for interval in (0.5, 1.0, 5.0, 15.0, 60.0):
        config = simulation_config(scale, connections, seed=77, ebf_refresh_interval=interval)
        result = Simulator(config).run()
        report.add_row(
            refresh_interval_s=interval,
            client_query_hit_rate=result.client_query_hit_rate,
            query_stale_rate=result.query_stale_rate,
            read_stale_rate=result.read_stale_rate,
        )
    report.add_note(
        "Expected: longer refresh intervals trade additional staleness for marginally "
        "higher hit rates (the Delta knob of Delta-atomicity)."
    )
    return report
