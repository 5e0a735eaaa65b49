"""Oracle parity for the process-parallel simulator (the PR 7 tentpole).

The single-process :class:`Simulator` is the golden oracle: for every
caching mode and replication factor, running the partitioned model through
real spawned worker processes must reproduce the serial merge *byte for
byte* -- summary dicts compare equal under Python ``==``, no tolerance.

The oracle and the engine share one merge, so parity alone cannot see a
merge bug: ``MERGED_GOLDENS`` pins absolute merged summaries (captured from
the epoch-barrier engine this one replaced), and the one-partition merge is
held to the classic simulator on every mode x deployment combination.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.faults import FaultAction, FaultEvent, FaultPlan
from repro.resilience import ResilienceConfig
from repro.simulation import (
    CachingMode,
    ParallelSimulator,
    Simulator,
    serial_oracle,
)
from repro.simulation.parallel import parity_config, run_parity_harness

MODES = (CachingMode.QUAESTOR, CachingMode.EBF_ONLY, CachingMode.CDN_ONLY)

CRASH_PLAN = FaultPlan(
    events=[
        FaultEvent(0.02, FaultAction.CRASH, "shard:0"),
        FaultEvent(0.03, FaultAction.CRASH, "s1:n1"),
        FaultEvent(0.12, FaultAction.RECOVER, "shard:0"),
        FaultEvent(0.13, FaultAction.RECOVER, "s1:n1"),
    ],
    name="parity-faults",
)
GRAY_PLAN = FaultPlan(
    events=[
        FaultEvent(0.02, FaultAction.SLOW_SHARD, "shard:0", magnitude=4.0),
        FaultEvent(0.03, FaultAction.FLAKY_SHARD, "shard:1", magnitude=0.3),
        FaultEvent(0.04, FaultAction.SLOW_SHARD, "s1:n1", magnitude=6.0),
        FaultEvent(0.25, FaultAction.RESTORE, "shard:0"),
        FaultEvent(0.26, FaultAction.RESTORE, "shard:1"),
        FaultEvent(0.27, FaultAction.RESTORE, "s1:n1"),
    ],
    name="gray-parity",
)
#: The four deployments every caching mode is held to the classic simulator on.
DEPLOYMENTS = {
    "rf1": {},
    "rf3": {"replication_factor": 3},
    "rf3+faults": {"replication_factor": 3, "fault_plan": CRASH_PLAN},
    "rf3+gray+resilience": {
        "replication_factor": 3,
        "fault_plan": GRAY_PLAN,
        "resilience": ResilienceConfig(),
    },
}


def merged_golden_chaos_config():
    """P=4 / RF 3: gray faults, a crash long enough to fail over, resilience on."""
    plan = FaultPlan(
        events=[
            FaultEvent(0.02, FaultAction.SLOW_SHARD, "shard:0", magnitude=4.0),
            FaultEvent(0.03, FaultAction.FLAKY_SHARD, "shard:1", magnitude=0.3),
            FaultEvent(0.03, FaultAction.CRASH, "shard:2"),
            FaultEvent(0.04, FaultAction.SLOW_SHARD, "s3:n1", magnitude=6.0),
            FaultEvent(0.15, FaultAction.RECOVER, "shard:2"),
            FaultEvent(0.25, FaultAction.RESTORE, "shard:0"),
            FaultEvent(0.26, FaultAction.RESTORE, "shard:1"),
            FaultEvent(0.27, FaultAction.RESTORE, "s3:n1"),
        ],
        name="merged-golden",
    )
    return replace(
        parity_config(CachingMode.QUAESTOR, replication_factor=3, num_partitions=4),
        fault_plan=plan,
        resilience=ResilienceConfig(),
        failover_detection_delay=0.02,
    )


#: Merged ``summary()`` of two partitioned runs, captured at the parent commit
#: (2650e6a, the Pipe + lock-step-epoch engine with its own rate re-derivation
#: in ``merge_outcomes``), where oracle and 2-worker engine agreed on them.
MERGED_GOLDENS = {
    "p4-rf3-chaos": (
        merged_golden_chaos_config,
        4,
        {
            "throughput": 4440.908239421095,
            "mean_read_latency_ms": 17.635377598399973,
            "mean_query_latency_ms": 6.137842211993626,
            "client_query_hit_rate": 0.9682539682539683,
            "client_read_hit_rate": 0.9009584664536742,
            "cdn_query_hit_rate": 0.0,
            "cdn_read_hit_rate": 0.0,
            "query_stale_rate": 0.17142857142857143,
            "read_stale_rate": 0.006389776357827476,
            "request_error_rate": 0.0015625,
            "replica_read_share": 0.6515151515151515,
            "failovers": 1.0,
            "max_staleness_s": 0.1462217110988149,
            "mean_staleness_s": 0.06331388639958474,
            "faults_injected": 4.0,
            "mean_time_to_recover_s": 0.020000000000000004,
            "max_time_to_recover_s": 0.020000000000000004,
            "resilience_retries": 4.0,
            "resilience_retry_successes": 2.0,
            "breaker_fast_fails": 0.0,
            "stale_if_error_serves": 0.0,
            "hedged_reads": 5.0,
            "hedge_wins": 1.0,
            "degraded_served": 0.0,
        },
    ),
    "p2-plain": (
        lambda: parity_config(CachingMode.QUAESTOR, replication_factor=1, num_partitions=2),
        2,
        {
            "throughput": 28798.212631025992,
            "mean_read_latency_ms": 5.906891029468896,
            "mean_query_latency_ms": 0.4659690068546124,
            "client_query_hit_rate": 0.9969512195121951,
            "client_read_hit_rate": 0.8852459016393442,
            "cdn_query_hit_rate": 0.0,
            "cdn_read_hit_rate": 0.0,
            "query_stale_rate": 0.14329268292682926,
            "read_stale_rate": 0.04918032786885246,
        },
    ),
}


def canonical(summary: dict) -> str:
    """Byte-exact serialised form (also pins key order)."""
    return json.dumps(summary, sort_keys=False, separators=(",", ":"))


class TestOracleParity:
    @pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
    @pytest.mark.parametrize("replication_factor", (1, 3), ids=("rf1", "rf3"))
    def test_spawned_workers_match_serial_oracle(self, mode, replication_factor):
        config = parity_config(
            mode, replication_factor=replication_factor, num_partitions=2
        )
        oracle = serial_oracle(config, num_partitions=2)
        engine = ParallelSimulator(config, num_partitions=2, num_workers=2)
        parallel = engine.run()
        assert canonical(parallel.summary()) == canonical(oracle.summary())
        assert parallel.aggregate.measured_operations == oracle.aggregate.measured_operations
        assert parallel.total_operations == oracle.total_operations
        assert parallel.events_processed == oracle.events_processed

    @pytest.mark.parametrize("mode", tuple(CachingMode), ids=lambda mode: mode.value)
    @pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
    def test_partition_one_is_the_classic_simulator(self, mode, deployment):
        """P=1 is the identity: the degenerate parallel run == Simulator.run()."""
        config = replace(parity_config(mode, num_partitions=2), **DEPLOYMENTS[deployment])
        classic = Simulator(config).run().summary()
        merged = ParallelSimulator(config, num_partitions=1, num_workers=1).run().summary()
        assert canonical(merged) == canonical(classic)
        assert ("request_error_rate" in merged) == (deployment != "rf1")
        assert ("resilience_retries" in merged) == (deployment == "rf3+gray+resilience")

    @pytest.mark.parametrize("name", sorted(MERGED_GOLDENS))
    def test_merged_summary_matches_the_parent_captured_golden(self, name):
        build_config, num_partitions, golden = MERGED_GOLDENS[name]
        merged = serial_oracle(build_config(), num_partitions).summary()
        assert canonical(merged) == canonical(golden)

    def test_parity_with_fault_plan_split_across_partitions(self):
        """Fault events route to their owning partition and stay in parity."""
        config = replace(
            parity_config(CachingMode.QUAESTOR, replication_factor=3), fault_plan=CRASH_PLAN
        )
        oracle = serial_oracle(config, num_partitions=2)
        parallel = ParallelSimulator(config, num_partitions=2, num_workers=2).run()
        assert canonical(parallel.summary()) == canonical(oracle.summary())
        # Both partitions actually injected faults (late recoveries may land
        # after the operation budget is exhausted, so >= both crashes).
        assert oracle.summary()["faults_injected"] >= 2.0

    def test_parity_with_gray_failure_plan_and_resilience(self):
        """Gray slow/flaky events + the resilience layer stay in byte parity.

        Partitioned-serial and partitioned-parallel runs execute identical
        sub-configs, so the per-partition gray RNG substreams (seeded by
        rewritten target strings) and retry jitter draws line up exactly.
        """
        config = replace(
            parity_config(CachingMode.QUAESTOR, replication_factor=3),
            fault_plan=GRAY_PLAN,
            resilience=ResilienceConfig(),
        )
        oracle = serial_oracle(config, num_partitions=2)
        parallel = ParallelSimulator(config, num_partitions=2, num_workers=2).run()
        assert canonical(parallel.summary()) == canonical(oracle.summary())
        # The gray window actually exercised the resilience layer.
        assert oracle.summary()["resilience_retries"] > 0

    def test_run_parity_harness_reports_all_match(self):
        report = run_parity_harness(
            modes=(CachingMode.QUAESTOR,),
            replication_factors=(1,),
            workers=(2,),
            num_partitions=2,
        )
        assert report["all_match"] is True
        (case,) = report["cases"]
        assert case["workers"] == {2: True}
