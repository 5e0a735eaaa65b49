"""Golden determinism tests for the simulator hot-path overhaul.

The throughput overhaul (PR 4) rewired the event queue, workload sampling
and the cache fast paths for raw simulated-ops/sec.  Its hard constraint is
that none of it changes *what* a seeded simulation computes: the summaries
below were produced by the pre-overhaul implementation (commit 2326f94) and
every value must match exactly -- not approximately -- forever after.
"""

from __future__ import annotations

import pytest

from repro.simulation import CachingMode, SimulationConfig, Simulator
from repro.ttl import TTLEstimatorSpec
from repro.workloads import DatasetSpec, WorkloadSpec


def golden_config(mode: CachingMode, num_shards: int = 1) -> SimulationConfig:
    return SimulationConfig(
        mode=mode,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(num_tables=2, documents_per_table=300, queries_per_table=30),
        num_clients=4,
        connections_per_client=50,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=60.0,
        max_operations=3_000,
        seed=13,
        num_shards=num_shards,
    )


#: summary() of the pre-overhaul simulator for golden_config(...), verbatim.
GOLDEN_SUMMARIES = {
    (CachingMode.QUAESTOR, 1): {
        "throughput": 14718.436844591828,
        "mean_read_latency_ms": 8.615301002732833,
        "mean_query_latency_ms": 1.0542310848279033,
        "client_query_hit_rate": 0.9540034071550255,
        "client_read_hit_rate": 0.8171953255425709,
        "cdn_query_hit_rate": 0.04003407155025554,
        "cdn_read_hit_rate": 0.09599332220367279,
        "query_stale_rate": 0.31601362862010224,
        "read_stale_rate": 0.07679465776293823,
    },
    (CachingMode.QUAESTOR, 2): {
        "throughput": 14748.098442131037,
        "mean_read_latency_ms": 8.985780516529493,
        "mean_query_latency_ms": 1.0433257717207067,
        "client_query_hit_rate": 0.9565587734241908,
        "client_read_hit_rate": 0.8196994991652755,
        "cdn_query_hit_rate": 0.03747870528109029,
        "cdn_read_hit_rate": 0.09265442404006678,
        "query_stale_rate": 0.31601362862010224,
        "read_stale_rate": 0.07762938230383973,
    },
    (CachingMode.EBF_ONLY, 1): {
        "throughput": 14214.35669077117,
        "mean_read_latency_ms": 23.28213335018467,
        "mean_query_latency_ms": 7.708448225460378,
        "client_query_hit_rate": 0.948892674616695,
        "client_read_hit_rate": 0.8155258764607679,
        "cdn_query_hit_rate": 0.0,
        "cdn_read_hit_rate": 0.0,
        "query_stale_rate": 0.2870528109028961,
        "read_stale_rate": 0.0667779632721202,
    },
    (CachingMode.CDN_ONLY, 1): {
        "throughput": 9008.488042838073,
        "mean_read_latency_ms": 23.680843592658025,
        "mean_query_latency_ms": 7.536732475013286,
        "client_query_hit_rate": 0.0,
        "client_read_hit_rate": 0.0,
        "cdn_query_hit_rate": 0.975298126064736,
        "cdn_read_hit_rate": 0.8489148580968281,
        "query_stale_rate": 0.1465076660988075,
        "read_stale_rate": 0.05008347245409015,
    },
    (CachingMode.UNCACHED, 1): {
        "throughput": 1365.5822953321997,
        "mean_read_latency_ms": 150.1042649118806,
        "mean_query_latency_ms": 150.26777049156806,
        "client_query_hit_rate": 0.0,
        "client_read_hit_rate": 0.0,
        "cdn_query_hit_rate": 0.0,
        "cdn_read_hit_rate": 0.0,
        "query_stale_rate": 0.0,
        "read_stale_rate": 0.0,
    },
}


class TestGoldenSummaries:
    @pytest.mark.parametrize(
        "mode,num_shards", sorted(GOLDEN_SUMMARIES, key=lambda item: (item[0].value, item[1]))
    )
    def test_summary_value_identical_to_pre_overhaul(self, mode, num_shards):
        result = Simulator(golden_config(mode, num_shards)).run()
        assert result.summary() == GOLDEN_SUMMARIES[(mode, num_shards)]

    def test_explicit_default_estimator_spec_reproduces_the_pinned_summaries(self):
        """The TTL bake-off confirmed the pre-existing estimator as the
        default: selecting it explicitly through ``SimulationConfig`` must
        reproduce the golden summaries exactly."""
        config = golden_config(CachingMode.QUAESTOR)
        config.ttl_estimator = TTLEstimatorSpec()
        result = Simulator(config).run()
        assert result.summary() == GOLDEN_SUMMARIES[(CachingMode.QUAESTOR, 1)]
