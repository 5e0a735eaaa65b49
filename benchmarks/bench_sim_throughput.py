#!/usr/bin/env python
"""End-to-end simulator throughput benchmark: simulated ops/sec, before/after.

Measures how fast :class:`repro.simulation.Simulator` advances simulated
operations through a full Quaestor deployment and writes the numbers to
``BENCH_sim.json``.  Every scenario is run twice in the same process:

* **baseline** -- under :func:`repro.perf.legacy_hot_paths`, which restores
  the one pre-overhaul per-operation code path the simulator still has a
  switch for (uncached ETag rendering; the generator's ``operations()`` also
  samples per operation under it, but the simulator pulls chunks either way);
* **optimized** -- the default fast paths (tuple-heap event queue with bulk
  ``schedule_many`` start-up, chunked ``random.choices``-style workload
  sampling, one-frame-per-tier hierarchy fetch and batch member restamps,
  memoized ETag rendering).

Document cloning used to dominate the baseline leg; since stored document
versions became immutable and shared by reference there is nothing to clone
in *either* leg, so the committed ratios are close to 1 and the absolute
numbers of both legs rose.

Before any timing is read, the two legs' seeded
:meth:`~repro.simulation.SimulationResult.summary` dictionaries are asserted
**value-identical** -- the overhaul changes what one simulated operation
costs, never what it computes.

The per-mode breakdown covers the paper's four system configurations
(QUAESTOR / EBF_ONLY / CDN_ONLY / UNCACHED) at one and four shards.  The
headline metric is the full system (``quaestor``, one shard): the default
configuration every figure-8/9/10 reproduction drives.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py              # full run
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --budget     # CI-sized
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --budget \\
        --check BENCH_sim.json                                           # regression gate

``--check`` compares the freshly measured optimized-vs-baseline *speedups*
against the committed file and fails (exit 1) when any ratio collapsed by
more than the allowed factor (default 3x).  Ratios, not absolute ops/sec:
both legs of each ratio come from the same machine and invocation, so the
gate is independent of how fast the CI runner happens to be.

The report also carries a **process-parallel scaling grid**: the
:class:`repro.simulation.ParallelSimulator` run at workers={1, 2, 4, 8}
(override with ``--workers N`` or ``SIM_WORKERS=N``) after asserting every
worker count byte-identical to the single-process serial oracle.
``--check-parallel`` gates the measured scaling: worker counts the machine
can parallelize (<= cpu_count) must reach 0.625x per worker vs workers=1
(>= 2.5x at 4 workers on a 4-core runner); oversubscribed counts only have
their spawn/barrier overhead bounded.  ``cpu_count`` is recorded in the
report, so a grid measured on a single-core runner is legible as such.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import perf  # noqa: E402
from repro.rest.etags import clear_etag_caches  # noqa: E402
from repro.simulation import (  # noqa: E402
    CachingMode,
    ParallelSimulator,
    SimulationConfig,
    Simulator,
    serial_oracle,
)
from repro.workloads import DatasetSpec, WorkloadSpec  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_sim.json"
SCHEMA = "quaestor-bench-sim/1"
#: CI gate: fail when a scenario's speedup drops below committed/FACTOR.
DEFAULT_REGRESSION_FACTOR = 3.0
#: The scenario every figure reproduction drives: the full system.
HEADLINE_SCENARIO = "quaestor/shards=1"

#: The process-parallel scaling grid (overridable via --workers / SIM_WORKERS).
DEFAULT_WORKERS_GRID = (1, 2, 4, 8)
#: Partitions of the parallel scenario (one per shard group).
PARALLEL_PARTITIONS = 8
#: Operation count of the parallel grid in budget and full mode alike: the
#: grid gates *ratios*, and a too-small run would drown them in constant
#: spawn overhead rather than measuring the engine.
PARALLEL_MAX_OPERATIONS = 20_000
#: Scaling floor per *usable* worker: workers <= cpu_count must reach
#: 0.625x per worker vs workers=1 (so workers=4 on a >=4-core machine must
#: scale >=2.5x).  The gate is honest about the hardware it runs on: this
#: floor only applies to worker counts the machine can actually parallelize.
PARALLEL_SCALING_PER_WORKER = 0.625
#: Oversubscribed worker counts (> cpu_count) cannot speed anything up; the
#: gate still bounds their overhead: spawn + epoch barriers must not eat
#: more than ~5x (scaling vs workers=1 stays above this floor).
OVERSUBSCRIBED_FLOOR = 0.2

#: Simulated-ops/sec measured in this repo immediately before the overhaul
#: (commit 2326f94, quaestor/shards=1, full-run scale) -- the absolute
#: pre-PR reference for the machine that produced the committed report.
PRE_CHANGE_REFERENCE = {
    "quaestor/shards=1": 8_156.0,
    "cdn-only/shards=1": 28_878.0,
    "uncached/shards=1": 9_927.0,
}


def build_config(mode: CachingMode, num_shards: int, max_operations: int) -> SimulationConfig:
    """One benchmark scenario: a mid-sized deployment, fixed seed."""
    return SimulationConfig(
        mode=mode,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(num_tables=2, documents_per_table=300, queries_per_table=30),
        num_clients=4,
        connections_per_client=50,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=60.0,
        max_operations=max_operations,
        seed=42,
        num_shards=num_shards,
    )


def run_leg(config: SimulationConfig) -> Tuple[Dict[str, float], int, int, float]:
    """Build and run one simulator; returns (summary, operations, events, seconds)."""
    simulator = Simulator(config)
    start = time.perf_counter()
    result = simulator.run()
    elapsed = time.perf_counter() - start
    return result.summary(), simulator.total_operations, simulator.events.processed, elapsed


def bench_scenario(
    mode: CachingMode, num_shards: int, max_operations: int, repeats: int
) -> Dict[str, object]:
    """Measure baseline (legacy flags) vs optimized for one scenario."""
    config = build_config(mode, num_shards, max_operations)

    # Determinism gate before any timing: the seeded summaries of the two
    # implementations must be value-identical.
    clear_etag_caches()
    fast_summary, _ops, _events, _ = run_leg(config)
    with perf.legacy_hot_paths():
        legacy_summary, _lops, _levents, _ = run_leg(config)
    if fast_summary != legacy_summary:
        raise AssertionError(
            f"hot-path overhaul changed the seeded summary for {mode.value}/"
            f"shards={num_shards}:\n  legacy:    {legacy_summary}\n  optimized: {fast_summary}"
        )

    best_baseline = 0.0
    best_optimized = 0.0
    events_per_sec = 0.0
    operations = 0
    for _ in range(repeats):
        with perf.legacy_hot_paths():
            _summary, ops, _events, elapsed = run_leg(config)
        if elapsed > 0:
            best_baseline = max(best_baseline, ops / elapsed)
        clear_etag_caches()
        _summary, ops, events, elapsed = run_leg(config)
        if elapsed > 0:
            rate = ops / elapsed
            if rate > best_optimized:
                best_optimized = rate
                events_per_sec = events / elapsed
        operations = ops
    return {
        "operations": operations,
        "baseline_ops_per_sec": round(best_baseline, 1),
        "optimized_ops_per_sec": round(best_optimized, 1),
        "optimized_events_per_sec": round(events_per_sec, 1),
        "speedup": round(best_optimized / best_baseline, 2) if best_baseline else float("inf"),
        "summary_identical": True,
    }


def build_parallel_config(max_operations: int) -> SimulationConfig:
    """The parallel-scaling scenario: 8 shard groups, read-heavy, fixed seed."""
    return SimulationConfig(
        mode=CachingMode.QUAESTOR,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(num_tables=8, documents_per_table=300, queries_per_table=30),
        num_clients=8,
        connections_per_client=50,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=60.0,
        max_operations=max_operations,
        seed=42,
        num_shards=PARALLEL_PARTITIONS,
    )


def bench_parallel_grid(
    max_operations: int, repeats: int, workers_grid: Sequence[int]
) -> Dict[str, object]:
    """Time the process-parallel engine across worker counts.

    Before any timing, the merged summary at every measured worker count is
    asserted byte-identical to the single-process serial oracle -- the
    parallel engine is only worth benchmarking while it computes the exact
    same results.  Scaling is reported relative to the engine's own
    ``workers=1`` (in-process epoch loop), so the ratios are independent of
    runner speed.
    """
    config = build_parallel_config(max_operations)
    grid = sorted({int(workers) for workers in workers_grid})
    if not grid or grid[0] < 1:
        raise ValueError("workers grid must contain positive worker counts")
    if 1 not in grid:
        grid.insert(0, 1)  # the scaling reference is always measured

    oracle_summary = serial_oracle(config, PARALLEL_PARTITIONS).summary()
    rates: Dict[int, float] = {}
    for workers in grid:
        best = 0.0
        for _ in range(repeats):
            engine = ParallelSimulator(
                config, num_partitions=PARALLEL_PARTITIONS, num_workers=workers
            )
            start = time.perf_counter()
            result = engine.run()
            elapsed = time.perf_counter() - start
            if result.summary() != oracle_summary:
                raise AssertionError(
                    f"parallel engine diverged from the serial oracle at "
                    f"workers={workers}:\n  oracle:   {oracle_summary}\n"
                    f"  parallel: {result.summary()}"
                )
            if elapsed > 0:
                best = max(best, result.total_operations / elapsed)
        rates[workers] = best

    reference = rates[1]
    cpu_count = os.cpu_count() or 1
    return {
        "scenario": f"quaestor/shards={PARALLEL_PARTITIONS}/partitions={PARALLEL_PARTITIONS}",
        "cpu_count": cpu_count,
        "num_partitions": PARALLEL_PARTITIONS,
        "max_operations": max_operations,
        "parity_identical": True,
        "workers": {
            str(workers): {
                "ops_per_sec": round(rate, 1),
                "scaling_vs_workers1": round(rate / reference, 3) if reference else 0.0,
            }
            for workers, rate in rates.items()
        },
        "note": (
            "scaling_vs_workers1 compares against the in-process epoch loop on "
            "the same runner; worker counts above cpu_count cannot exceed 1.0 "
            "and only measure spawn/barrier overhead"
        ),
    }


def check_parallel(report: Dict[str, object]) -> int:
    """Gate the freshly measured parallel scaling grid.

    Worker counts the machine can parallelize (``workers <= cpu_count``)
    must scale at least ``0.625 * workers`` vs the single-worker engine --
    on a 4-core-or-better runner that is the >=2.5x-at-4-workers
    requirement.  Oversubscribed counts only have their overhead bounded.
    Both legs of every ratio come from this same invocation, so the gate is
    independent of absolute runner speed.
    """
    parallel = report.get("parallel")
    if not isinstance(parallel, dict):
        print("FAIL: report carries no parallel scaling grid")
        return 1
    cpu_count = int(parallel.get("cpu_count", 1))
    failures = []
    for workers_text, leg in sorted(
        parallel["workers"].items(), key=lambda item: int(item[0])
    ):
        workers = int(workers_text)
        if workers == 1:
            continue
        scaling = float(leg["scaling_vs_workers1"])
        if workers <= cpu_count:
            floor = PARALLEL_SCALING_PER_WORKER * workers
            kind = "scaling"
        else:
            floor = OVERSUBSCRIBED_FLOOR
            kind = "oversubscribed overhead"
        status = "ok" if scaling >= floor else "REGRESSION"
        print(
            f"  workers={workers:<2} scaling {scaling:>6.3f}x  floor {floor:>5.3f}x "
            f"({kind}, cpu_count={cpu_count})  {status}"
        )
        if scaling < floor:
            failures.append(f"workers={workers}")
    if failures:
        print(f"FAIL: parallel scaling below floor on: {', '.join(failures)}")
        return 1
    print("OK: parallel scaling grid within floors (parity already asserted)")
    return 0


def run(budget: bool, repeats: int, workers_grid: Sequence[int]) -> Dict[str, object]:
    max_operations = 6_000 if budget else 20_000
    bench_repeats = max(1, min(repeats, 2) if budget else repeats)
    if budget:
        scenarios: List[Tuple[CachingMode, int]] = [
            (CachingMode.QUAESTOR, 1),
            (CachingMode.EBF_ONLY, 1),
            (CachingMode.CDN_ONLY, 1),
            (CachingMode.UNCACHED, 1),
            (CachingMode.QUAESTOR, 4),
        ]
    else:
        scenarios = [(mode, shards) for mode in CachingMode for shards in (1, 4)]

    results: Dict[str, object] = {}
    for mode, shards in scenarios:
        name = f"{mode.value}/shards={shards}"
        results[name] = bench_scenario(mode, shards, max_operations, bench_repeats)

    headline = results.get(HEADLINE_SCENARIO, {})
    return {
        "schema": SCHEMA,
        "generated_by": "benchmarks/bench_sim_throughput.py",
        "budget_mode": budget,
        "python": platform.python_version(),
        "workload": "read-heavy (49.5% reads, 49.5% queries, 1% updates), zipf 0.7",
        "max_operations": max_operations,
        "scenarios": results,
        "parallel": bench_parallel_grid(
            PARALLEL_MAX_OPERATIONS, bench_repeats, workers_grid
        ),
        "headline": {
            "scenario": HEADLINE_SCENARIO,
            "speedup": headline.get("speedup"),
            "optimized_ops_per_sec": headline.get("optimized_ops_per_sec"),
        },
        "pre_change_reference": {
            "note": (
                "absolute simulated-ops/sec measured in-repo at commit 2326f94 "
                "(before this overhaul) on the machine that produced this report; "
                "the baseline_ops_per_sec legs re-measure the legacy code paths "
                "per run via repro.perf.legacy_hot_paths()"
            ),
            "measured_ops_per_sec": PRE_CHANGE_REFERENCE,
        },
    }


def speedup_metrics(report: Dict[str, object]) -> Dict[str, float]:
    return {
        name: scenario["speedup"]
        for name, scenario in report["scenarios"].items()
        if isinstance(scenario, dict) and "speedup" in scenario
    }


def check(report: Dict[str, object], baseline_path: pathlib.Path, factor: float) -> int:
    """Gate on the optimized-vs-baseline *speedup* of the current run.

    Only scenarios present in both reports are compared (the budget run
    covers a subset of the committed full grid).  A collapse of a ratio
    towards 1 is exactly the regression this guards against: per-operation
    deep copies, uncached ETag rendering or per-record response construction
    sneaking back into the simulation hot path.
    """
    committed = json.loads(baseline_path.read_text(encoding="utf-8"))
    current = speedup_metrics(report)
    reference = speedup_metrics(committed)
    failures = []
    compared = 0
    for name, reference_ratio in reference.items():
        if name not in current:
            continue
        compared += 1
        current_ratio = current[name]
        floor = reference_ratio / factor
        status = "ok" if current_ratio >= floor else "REGRESSION"
        print(
            f"  {name:<22} current speedup {current_ratio:>6.2f}x  "
            f"committed {reference_ratio:>6.2f}x  floor {floor:>5.2f}x  {status}"
        )
        if current_ratio < floor:
            failures.append(name)
    if compared == 0:
        print("FAIL: no overlapping scenarios between current run and committed report")
        return 1
    if failures:
        print(f"FAIL: simulator speedup collapsed >{factor:.0f}x on: {', '.join(failures)}")
        return 1
    print(f"OK: all simulator speedups within {factor:.0f}x of the committed baseline")
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--budget", action="store_true", help="CI-sized run (fewer operations/scenarios/repeats)"
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="measure and print without writing the file"
    )
    parser.add_argument(
        "--check",
        type=pathlib.Path,
        metavar="BASELINE",
        help="compare against a committed report; exit 1 on >--factor regression",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=DEFAULT_REGRESSION_FACTOR,
        help=f"allowed regression factor for --check (default {DEFAULT_REGRESSION_FACTOR:g})",
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "measure the parallel grid at workers={1, N} instead of the default "
            f"{DEFAULT_WORKERS_GRID} grid; the SIM_WORKERS environment variable "
            "sets the same override"
        ),
    )
    parser.add_argument(
        "--check-parallel",
        action="store_true",
        help=(
            "gate the freshly measured parallel scaling grid: workers <= cpu_count "
            f"must scale >= {PARALLEL_SCALING_PER_WORKER:g}x per worker vs workers=1; "
            "exit 1 below the floor"
        ),
    )
    args = parser.parse_args(argv)

    workers_override: Optional[int] = args.workers
    if workers_override is None and os.environ.get("SIM_WORKERS"):
        workers_override = int(os.environ["SIM_WORKERS"])
    if workers_override is not None and workers_override < 1:
        parser.error("--workers / SIM_WORKERS must be a positive worker count")
    workers_grid: Sequence[int] = (
        (1, workers_override) if workers_override is not None else DEFAULT_WORKERS_GRID
    )

    report = run(args.budget, args.repeats, workers_grid)
    print(json.dumps(report, indent=2))

    exit_code = 0
    if args.check_parallel:
        print("\nParallel scaling check (measured this invocation):")
        exit_code = check_parallel(report)

    if args.check is not None:
        # Gate runs never overwrite the committed baseline they compare against.
        print(f"\nRegression check against {args.check}:")
        return check(report, args.check, args.factor) or exit_code

    if exit_code == 0 and not args.no_write and not args.check_parallel:
        args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"\nwrote {args.output}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
