"""Tests for the Monte Carlo simulator (integration of all components)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.simulation import CachingMode, SimulationConfig, Simulator
from repro.workloads import DatasetSpec, WorkloadSpec


def small_config(mode: CachingMode, **overrides) -> SimulationConfig:
    defaults = dict(
        mode=mode,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(num_tables=2, documents_per_table=300, queries_per_table=30),
        num_clients=4,
        connections_per_client=10,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=60.0,
        max_operations=2_500,
        seed=13,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.fixture(scope="module")
def quaestor_result():
    return Simulator(small_config(CachingMode.QUAESTOR)).run()


@pytest.fixture(scope="module")
def uncached_result():
    return Simulator(small_config(CachingMode.UNCACHED)).run()


class TestSimulationMechanics:
    def test_operations_and_duration_recorded(self, quaestor_result):
        assert quaestor_result.operations > 0
        assert quaestor_result.measured_duration > 0
        assert quaestor_result.throughput > 0

    def test_latency_histograms_populated(self, quaestor_result):
        assert quaestor_result.read_latency.count > 0
        assert quaestor_result.query_latency.count > 0
        assert quaestor_result.write_latency.count > 0

    def test_level_counts_sum_to_measured_reads(self, quaestor_result):
        total_level_counts = sum(
            sum(counts.values()) for counts in quaestor_result.level_counts.values()
        )
        assert total_level_counts == quaestor_result.operations

    def test_summary_keys(self, quaestor_result):
        summary = quaestor_result.summary()
        assert {"throughput", "mean_read_latency_ms", "client_query_hit_rate"} <= set(summary)

    def test_deterministic_given_seed(self):
        first = Simulator(small_config(CachingMode.QUAESTOR, max_operations=1_000)).run()
        second = Simulator(small_config(CachingMode.QUAESTOR, max_operations=1_000)).run()
        assert first.throughput == pytest.approx(second.throughput)
        assert first.client_query_hit_rate == pytest.approx(second.client_query_hit_rate)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(CachingMode.QUAESTOR, num_clients=0)
        with pytest.raises(ConfigurationError):
            small_config(CachingMode.QUAESTOR, warmup_fraction=1.5)
        with pytest.raises(ConfigurationError):
            small_config(CachingMode.QUAESTOR, origin_capacity=0)


class TestCachingModes:
    def test_uncached_mode_never_hits_caches(self, uncached_result):
        assert uncached_result.client_query_hit_rate == 0.0
        assert uncached_result.cdn_query_hit_rate == 0.0
        assert uncached_result.query_stale_rate == 0.0

    def test_uncached_latency_is_wide_area(self, uncached_result):
        assert uncached_result.query_latency.mean > 0.1

    def test_quaestor_beats_uncached_throughput(self, quaestor_result, uncached_result):
        assert quaestor_result.throughput > 2.0 * uncached_result.throughput

    def test_quaestor_query_latency_far_below_uncached(self, quaestor_result, uncached_result):
        assert quaestor_result.query_latency.mean < 0.3 * uncached_result.query_latency.mean

    def test_quaestor_achieves_cache_hits(self, quaestor_result):
        assert quaestor_result.client_query_hit_rate > 0.3

    def test_cdn_only_mode_uses_cdn_not_client(self):
        result = Simulator(small_config(CachingMode.CDN_ONLY, max_operations=1_500)).run()
        assert result.client_query_hit_rate == 0.0
        assert result.cdn_query_hit_rate > 0.3

    def test_ebf_only_mode_has_no_cdn(self):
        result = Simulator(small_config(CachingMode.EBF_ONLY, max_operations=1_500)).run()
        assert result.cdn_query_hit_rate == 0.0
        assert result.client_query_hit_rate > 0.3

    def test_mode_capabilities(self):
        assert CachingMode.QUAESTOR.uses_cdn and CachingMode.QUAESTOR.uses_ebf
        assert not CachingMode.CDN_ONLY.uses_ebf
        assert not CachingMode.UNCACHED.uses_client_cache


class TestStalenessBound:
    def test_staleness_is_bounded_by_delta_plus_invalidation_delay(self):
        delta = 2.0
        config = small_config(
            CachingMode.QUAESTOR,
            ebf_refresh_interval=delta,
            max_operations=3_000,
            workload=WorkloadSpec.with_update_rate(0.05),
        )
        result = Simulator(config).run()
        slack = 0.2  # invalidation delay + jitter
        assert result.aggregate.max_staleness <= delta + slack

    def test_smaller_delta_means_less_staleness(self):
        tight = Simulator(
            small_config(
                CachingMode.QUAESTOR,
                ebf_refresh_interval=0.5,
                workload=WorkloadSpec.with_update_rate(0.05),
            )
        )
        loose = Simulator(
            small_config(
                CachingMode.QUAESTOR,
                ebf_refresh_interval=20.0,
                workload=WorkloadSpec.with_update_rate(0.05),
            )
        )
        tight_max = tight.run().aggregate.max_staleness
        loose_max = loose.run().aggregate.max_staleness
        assert tight_max <= loose_max + 0.25
