"""Benchmark target regenerating Figures 8d-e (latency and hit rates vs query count)."""

from __future__ import annotations

from conftest import emit

from repro.benchmarks.figure8 import run_figure8_query_count_sweep


def test_figure8de_query_count_sweep(benchmark, scale):
    latency, hit_rates = benchmark.pedantic(
        run_figure8_query_count_sweep,
        kwargs={"scale": scale, "query_count_steps": [60, 240, 480]},
        rounds=1,
        iterations=1,
    )
    emit(latency)
    emit(hit_rates)

    # 8d: more distinct queries -> lower client hit rates -> higher query latency.
    query_latencies = latency.column("mean_query_latency_ms")
    assert query_latencies[-1] >= query_latencies[0]

    # 8e: the client query hit rate must decline as the number of distinct
    # queries grows, and stay meaningful (caching is actually happening).
    client_hits = hit_rates.column("client_query_hit_rate")
    assert client_hits[-1] <= client_hits[0]
    assert client_hits[0] > 0.3
