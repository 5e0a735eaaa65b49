"""Measure one workload in this process and print the result as one JSON line.

``bench/run.py`` starts a fresh interpreter per workload (``PYTHONHASHSEED=0``,
one busy process at a time) so that peak RSS, import time and call counts
belong to that workload alone.  A run is one untimed warm-up segment plus
``segments`` timed ones; the traced pass then repeats segment 0 under
``cProfile``.  All correctness checks run outside the timed windows.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from bench.layers import attribute
from bench.workloads import (
    BY_NAME,
    DEFAULT_SEED,
    SMOKE_OPERATIONS,
    WARMUP_FRACTION,
    Workload,
    build_config,
    checker_budgets,
)

EXPECTED_DIGESTS = Path(__file__).resolve().parent / "expected" / "digests.json"


#: What a script that builds any of the four configs has to import.
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); "
    "import repro.faults, repro.obs, repro.resilience, repro.simulation; "
    "print(time.perf_counter() - start)"
)


def _import_seconds() -> float:
    """Wall seconds a fresh interpreter spends importing the program."""
    import repro

    source = str(Path(repro.__file__).resolve().parent.parent)
    finished = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=source),
        stdout=subprocess.PIPE, text=True, timeout=60, check=True,
    )
    return float(finished.stdout)


def summary_digest(summary: Dict[str, float]) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()[:16]


def pinned_digests(path: Path, workload: str, smoke: bool) -> List[str]:
    with open(path) as handle:
        return json.load(handle)["smoke" if smoke else "full"].get(workload, [])


def _run_segment(workload: Workload, seed: int, index: int, operations: int, profiler=None):
    """Build and run one segment; returns (simulator, result, construct_s, run_s)."""
    from repro.simulation import Simulator

    config = build_config(workload.name, seed, index, operations)
    gc.collect()
    start = time.perf_counter()
    simulator = Simulator(config)
    construct_s = time.perf_counter() - start
    gc.collect()
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        result = simulator.run()
    finally:
        if profiler is not None:
            profiler.disable()
    return simulator, result, construct_s, time.perf_counter() - start


def _error_requests(result) -> int:
    from repro.client.sdk import ERROR_LEVEL

    return sum(counts.get(ERROR_LEVEL, 0) for counts in result.level_counts.values())


def _check_segment(workload: Workload, simulator, result) -> List[str]:
    """Invariant checks (c) and (d); returns the failures."""
    if not workload.fleet:
        errors = _error_requests(result)
        return [f"(d) {errors} error-level requests on a single-server workload"] if errors else []
    from repro.verify.checkers import run_all

    delta, degraded = checker_budgets(simulator.config)
    return [
        f"(c) {report.checker}: {len(report.violations)} violations, first: {report.violations[0]}"
        for report in run_all(simulator.history_events(), delta, degraded)
        if not report.ok
    ]


def _layer_counters(simulator, result) -> Dict[str, float]:
    """Modelled-component counters from the public statistics of one segment."""
    stats = result.server_statistics
    operations = simulator.total_operations
    writes = stats["writes"]
    retries = sum(stats.get(f"cluster_{kind}_retries", 0) for kind in ("read", "query", "write"))
    retry_successes = sum(
        stats.get(f"cluster_{kind}_retry_successes", 0) for kind in ("read", "query", "write")
    )
    # Requests that reached the origin tier: the cluster facade's counters
    # when there is one, the single server's otherwise.
    origin_requests = (
        stats.get("cluster_reads", stats["reads"])
        + stats.get("cluster_scatter_queries", stats.get("queries", 0))
        + stats.get("cluster_writes", writes)
    )
    return {
        "simulation.events_per_op": simulator.events.processed / operations,
        "caching.client_read_hit_rate": result.client_read_hit_rate,
        "caching.client_query_hit_rate": result.client_query_hit_rate,
        "caching.cdn_read_hit_rate": result.cdn_read_hit_rate,
        "caching.cdn_query_hit_rate": result.cdn_query_hit_rate,
        "client.ebf_refreshes": sum(
            client.counters.get("ebf_refreshes") for client in simulator.clients
        ),
        # Cluster statistics sum the per-shard ratios.
        "bloom.ebf_fill_ratio": stats["ebf_fill_ratio"] / stats.get("shards", 1),
        "bloom.ebf_additions_per_write": stats.get("ebf_additions", 0) / writes,
        "core.origin_requests_per_op": origin_requests / operations,
        "core.purges_per_write": stats.get("purges_sent", 0) / writes,
        "invalidb.query_invalidations_per_write": stats.get("query_invalidations", 0) / writes,
        "invalidb.active_queries": stats["invalidb_active_queries"],
        "cluster.scatter_abort_rate": stats.get("scatter_abort_rate", 0.0),
        "replication.replica_read_share": stats.get("replica_read_share", 0.0),
        "replication.failovers": stats.get("cluster_failovers", 0),
        "resilience.retries": retries,
        "resilience.retry_success_ratio": retry_successes / retries if retries else 0.0,
        "resilience.breaker_fast_fails": stats.get("cluster_breaker_fast_fails", 0),
        "resilience.hedged_reads": (result.replication or {}).get("hedged_reads", 0.0),
        "verify.history_events_per_op": len(simulator.history_events()) / operations,
        "obs.spans_per_op": len(simulator.trace_spans()) / operations,
    }


def run_workload(
    name: str,
    seed: int = DEFAULT_SEED,
    segments: int = 5,
    traced: bool = False,
    smoke: bool = False,
    expected: Optional[Path] = EXPECTED_DIGESTS,
) -> Dict[str, object]:
    """Timed pass (and optionally the traced pass) of one workload.

    ``expected=None`` skips digest check (a): the run that re-pins them.
    """
    from repro.metrics.histogram import Histogram

    workload = BY_NAME[name]
    operations = SMOKE_OPERATIONS if smoke else workload.operations
    pinned: Optional[List[str]] = None
    if seed == DEFAULT_SEED and expected is not None:
        pinned = pinned_digests(expected, name, smoke)

    # Untimed warm-up: lazy imports, memo tables and the allocator settle here.
    import_s = _import_seconds()
    _sim, _result, construct_s, _run_s = _run_segment(
        workload, seed, -1, max(1, int(operations * WARMUP_FRACTION))
    )
    del _sim, _result

    failures: List[str] = []
    failed_operations = 0
    #: One sample per segment: a fresh interpreter's import + the construction.
    setup_samples = [import_s + construct_s]
    run_samples: List[float] = []
    digests: List[Optional[str]] = []
    read_latency, query_latency = Histogram("read"), Histogram("query")
    measured_operations = 0
    measured_seconds = 0.0
    error_requests = 0
    stale: Dict[str, int] = {}
    first = None  # (summary, run_s, counters) of segment 0
    for index in range(segments):
        import_s = _import_seconds()
        try:
            simulator, result, construct_s, run_s = _run_segment(workload, seed, index, operations)
            summary = result.summary()
            digest = summary_digest(summary)
            problems = _check_segment(workload, simulator, result)
            if pinned is not None and index < len(pinned) and digest != pinned[index]:
                problems.append(f"(a) summary digest {digest} != pinned {pinned[index]}")
            if index == 0:
                first = (summary, run_s, _layer_counters(simulator, result))
        except Exception:  # a crashed segment is a failed one, not a crashed benchmark
            failures.append(f"segment {index} raised: {traceback.format_exc(limit=3)}")
            failed_operations += operations
            digests.append(None)
            continue
        setup_samples.append(import_s + construct_s)
        run_samples.append(run_s)
        digests.append(digest)
        if problems:
            failures += [f"segment {index}: {problem}" for problem in problems]
            failed_operations += operations
        read_latency.merge(result.read_latency)
        query_latency.merge(result.query_latency)
        measured_operations += result.operations
        measured_seconds += result.measured_duration
        error_requests += _error_requests(result)
        for key, value in simulator.stale_counts().items():
            stale[key] = stale.get(key, 0) + value
        del simulator, result
    if not run_samples:
        raise RuntimeError("every segment failed:\n" + "\n".join(failures))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB

    def stale_rate(kind: str) -> float:
        audited = stale.get(f"audited_{kind}", 0)
        return stale.get(f"stale_{kind}", 0) / audited if audited else 0.0

    # Host timings report the best sample, not the median: on a shared box
    # the noise is one-sided (a neighbour only ever slows a segment down, and
    # for seconds at a time), so the least disturbed sample is the steadiest
    # estimate.  The report prints the quartiles of all samples beside it.
    host_samples = [operations / run_s for run_s in run_samples]
    error_rate = error_requests / measured_operations
    end_to_end = {
        "setup_s": min(setup_samples),
        "host_ops_per_s": max(host_samples),
        "peak_rss_mb": peak_rss_mb,
        "sim_throughput_ops_s": measured_operations / measured_seconds,
        "sim_read_mean_ms": read_latency.mean * 1000.0,
        "sim_read_p99_ms": read_latency.percentile(0.99) * 1000.0,
        "sim_query_mean_ms": query_latency.mean * 1000.0,
        "sim_query_p99_ms": query_latency.percentile(0.99) * 1000.0,
        "sim_stale_read_rate": stale_rate("read"),
        "sim_stale_query_rate": stale_rate("query"),
        "sim_error_rate": error_rate,
        "sim_fresh_read_share": 1.0 - stale_rate("read"),
        "sim_fresh_query_share": 1.0 - stale_rate("query"),
        "sim_success_share": 1.0 - error_rate,
    }

    per_layer = None
    if traced and first is None:
        failures.append("(b) segment 0 failed, so the traced pass has nothing to agree with")
    elif traced:
        first_summary, first_run_s, counters = first
        profiler = cProfile.Profile()
        simulator, result, _setup_s, traced_s = _run_segment(
            workload, seed, 0, operations, profiler
        )
        if result.summary() != first_summary:
            failures.append("(b) the traced segment 0 summary differs from the timed one")
        per_layer = attribute(profiler.getstats(), simulator.total_operations)
        per_layer["trace_overhead_ratio"] = traced_s / first_run_s
        per_layer.update(counters)
        end_to_end["calls_per_op"] = per_layer["calls_per_op"]

    if expected is None:
        digest_check = "not checked: this run re-pins them"
    elif pinned is None:
        digest_check = f"skipped: digests are pinned for seed {DEFAULT_SEED} only"
    elif len(pinned) < segments:
        digest_check = f"{len(pinned)} of {segments} segments have a pinned digest"
    else:
        digest_check = "checked"
    return {
        "workload": name,
        "seed": seed,
        "segments": segments,
        "operations_per_segment": operations,
        "smoke": smoke,
        "correct": not failures,
        "failures": failures,
        "ops_attempted": segments * operations,
        "ops_failed": failed_operations,
        "sim_error_requests": error_requests,
        "digests": digests,
        "digest_check": digest_check,
        "end_to_end": end_to_end,
        "samples": {
            "host_ops_per_s": host_samples,
            "setup_s": setup_samples,
        },
        "latency_samples": {"read": read_latency.count, "query": query_latency.count},
        "per_layer": per_layer,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--segments", type=int, default=5)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--expected", type=Path, help="pinned digests; omitted = not checked")
    args = parser.parse_args(argv)
    result = run_workload(
        args.workload, args.seed, args.segments, args.traced, args.smoke, args.expected
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
