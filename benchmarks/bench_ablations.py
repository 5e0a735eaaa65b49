"""Benchmark targets for the design-choice ablations listed in ``docs/benchmarks.md``."""

from __future__ import annotations

from conftest import emit

from repro.benchmarks.ablations import (
    run_refresh_interval_ablation,
    run_representation_ablation,
    run_ttl_estimator_ablation,
)


def test_ablation_ttl_estimators(benchmark, scale):
    report = benchmark.pedantic(
        run_ttl_estimator_ablation, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    emit(report)
    rows = {row["estimator"]: row for row in report.rows}
    # The adaptive estimator must reach a hit rate at least comparable to the
    # best static setting while avoiding the short-TTL hit-rate collapse.
    assert rows["quaestor"]["client_query_hit_rate"] >= rows["static-10s"]["client_query_hit_rate"] - 0.05
    # The run outlasts the short static TTL, so the two static rows differ.
    static = [
        {column: value for column, value in rows[name].items() if column != "estimator"}
        for name in ("static-10s", "static-120s")
    ]
    assert static[0] != static[1], static


def test_ablation_representation(benchmark, scale):
    report = benchmark.pedantic(
        run_representation_ablation, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    emit(report)
    rows = {row["representation"]: row for row in report.rows}
    # Assembling id-lists costs extra round-trips, so the object-list and the
    # cost-based default must not be slower for queries than forced id-lists.
    assert rows["object-list"]["mean_query_latency_ms"] <= rows["id-list"]["mean_query_latency_ms"] + 1.0
    assert rows["cost-based"]["mean_query_latency_ms"] <= rows["id-list"]["mean_query_latency_ms"] + 1.0


def test_ablation_refresh_interval(benchmark, scale):
    report = benchmark.pedantic(
        run_refresh_interval_ablation, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    emit(report)
    rows = sorted(report.rows, key=lambda row: row["refresh_interval_s"])
    # Longer refresh intervals must not reduce staleness.
    assert rows[-1]["query_stale_rate"] >= rows[0]["query_stale_rate"] - 0.05
