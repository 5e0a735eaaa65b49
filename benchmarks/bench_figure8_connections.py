"""Benchmark target regenerating Figures 8a-c (throughput and latency vs connections)."""

from __future__ import annotations

from conftest import emit

from repro.benchmarks.figure8 import run_figure8_connection_sweep
from repro.simulation.simulator import CachingMode

QUAESTOR, UNCACHED = CachingMode.QUAESTOR.value, CachingMode.UNCACHED.value


def test_figure8abc_connection_sweep(benchmark, scale):
    reports = benchmark.pedantic(
        run_figure8_connection_sweep,
        kwargs={"scale": scale, "connection_steps": [60, 120, 240]},
        rounds=1,
        iterations=1,
    )
    for report in reports:
        emit(report)
    throughput, reads, queries = (
        {row["mode"]: row for row in report.rows if row["connections"] == 240}
        for report in reports
    )

    # 8a: at the highest connection count, Quaestor must clearly beat the
    # uncached baseline and the EBF-only variant (the paper reports ~11x and ~5x).
    by_mode = {mode: row["throughput"] for mode, row in throughput.items()}
    assert by_mode[QUAESTOR] > 3.0 * by_mode[UNCACHED]
    assert by_mode[QUAESTOR] > by_mode[CachingMode.EBF_ONLY.value]
    assert by_mode[QUAESTOR] > by_mode[CachingMode.CDN_ONLY.value]

    # 8b: reads through Quaestor must be far below the uncached wide-area round trip.
    by_mode = {mode: row["mean_read_latency_ms"] for mode, row in reads.items()}
    assert by_mode[QUAESTOR] < 0.5 * by_mode[UNCACHED]
    assert by_mode[UNCACHED] > 100.0

    # 8c: cached query latency must be an order of magnitude below the uncached baseline.
    by_mode = {mode: row["mean_query_latency_ms"] for mode, row in queries.items()}
    assert by_mode[QUAESTOR] < 0.2 * by_mode[UNCACHED]
    assert by_mode[QUAESTOR] < 20.0
