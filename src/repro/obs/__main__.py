"""CLI: run a seeded brownout scenario with tracing on and report attribution.

``python -m repro.obs`` runs a small Quaestor cluster scenario (two shards,
a gray brownout on shard 0, the resilience layer enabled) with the
observability layer attached, writes the Prometheus-text and JSON artifacts,
and prints the latency-attribution report (per-stage totals, top critical
path stages at p50/p99, waterfalls).

``--smoke`` additionally runs the identical scenario with observability
*off* first and asserts the two summaries are value-identical — the
determinism gate CI runs (``make obs-smoke``) — and enforces that the
analyzer attributes at least 95% of every sampled request's latency to
named spans.  It also prints the recorders' *price*: GC-tracked objects
retained per operation, off vs on (exact for a seed; wall and collector time
are ``make retained``'s job).  Exit code 0 means every gate held.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from repro.faults.plan import FaultPlan
from repro.obs import ObservabilityConfig, latency_attribution, render_report, write_artifacts
from repro.resilience import ResilienceConfig
from repro.simulation.simulator import CachingMode, SimulationConfig, Simulator
from repro.workloads.dataset import DatasetSpec
from repro.workloads.generator import WorkloadSpec

#: The smoke gate: every sampled request must have >= this share of its
#: latency attributed to named cost spans.
MIN_COVERAGE = 0.95

#: Gray brownout window, placed well inside the scenario's simulated span
#: (the operation budget drains in roughly a simulated second).
BROWNOUT_AT = 0.1
BROWNOUT_RECOVER_AT = 0.5


def scenario_config(
    seed: int, operations: int, observability: ObservabilityConfig | None = None
) -> SimulationConfig:
    """The seeded brownout scenario (identical with observability on or off)."""
    return SimulationConfig(
        mode=CachingMode.QUAESTOR,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(num_tables=2, documents_per_table=150, queries_per_table=15),
        num_clients=2,
        connections_per_client=10,
        duration=30.0,
        max_operations=operations,
        seed=seed,
        num_shards=2,
        fault_plan=FaultPlan.brownout(
            shard=0, at=BROWNOUT_AT, recover_at=BROWNOUT_RECOVER_AT
        ),
        resilience=ResilienceConfig(),
        observability=observability,
    )


def _run_counting_retained(config: SimulationConfig):
    """Run ``config``; returns (simulator, summary, GC-tracked objects retained per operation)."""
    simulator = Simulator(config)
    gc.collect()
    tracked = len(gc.get_objects())
    summary = simulator.run().summary()
    gc.collect()
    return simulator, summary, (len(gc.get_objects()) - tracked) / config.max_operations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="also run with observability off and assert summary parity + coverage",
    )
    parser.add_argument(
        "--out",
        default="benchmarks/results/obs",
        help="artifact directory (metrics.prom + obs.json)",
    )
    parser.add_argument("--seed", type=int, default=13, help="scenario seed")
    parser.add_argument("--ops", type=int, default=1200, help="operation budget")
    parser.add_argument(
        "--sample-every",
        type=int,
        default=1,
        help="trace every Nth request (1 = every request)",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=0.25,
        help="sim-time seconds between time-series snapshots",
    )
    args = parser.parse_args(argv)

    observability = ObservabilityConfig(
        sample_every=args.sample_every, metrics_interval=args.metrics_interval
    )
    traced_config = scenario_config(args.seed, args.ops, observability)

    baseline_summary = None
    if args.smoke:
        _, baseline_summary, retained_off = _run_counting_retained(
            scenario_config(args.seed, args.ops)
        )

    simulator, summary, retained_on = _run_counting_retained(traced_config)

    if baseline_summary is not None and summary != baseline_summary:
        diff = {
            key: (baseline_summary.get(key), summary.get(key))
            for key in sorted(set(baseline_summary) | set(summary))
            if baseline_summary.get(key) != summary.get(key)
        }
        print(f"FAIL: tracing changed the summary: {diff}", file=sys.stderr)
        return 1

    spans = simulator.trace_spans()
    attribution = latency_attribution(spans)
    if args.smoke:
        if attribution["requests"] == 0 or not spans:
            print("FAIL: traced run produced an empty span tree", file=sys.stderr)
            return 1
        if attribution["min_coverage"] < MIN_COVERAGE:
            print(
                f"FAIL: attribution coverage {attribution['min_coverage']:.4f} "
                f"below the {MIN_COVERAGE:.2f} gate",
                file=sys.stderr,
            )
            return 1

    meta = {
        "scenario": "brownout/shard=0",
        "mode": traced_config.mode.value,
        "seed": args.seed,
        "operations": args.ops,
        "summary": summary,
    }
    prom_path, json_path = write_artifacts(
        args.out, simulator.metrics_state(), simulator.trace_tuples(), meta=meta
    )

    print(render_report(spans))
    print()
    if baseline_summary is not None:
        print("summary parity: OK (observability off == on, "
              f"{len(summary)} values compared)")
        print(
            f"price (trace + metrics, {args.ops} ops): retained objects/op "
            f"off {retained_off:.2f}, on {retained_on:.2f}"
        )
    print(f"artifacts: {prom_path} {json_path}")
    print(f"summary: {json.dumps(summary, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
