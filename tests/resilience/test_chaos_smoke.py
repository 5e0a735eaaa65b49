"""End-to-end chaos smoke: seeded gray-failure runs, resilience on vs off.

Small, fast versions of the scenarios ``benchmarks/bench_resilience.py``
measures at full scale: for every brownout/flaky scenario the resilience
layer must improve availability (success rate) without blowing the
configured staleness budget, and seeded runs must be exactly reproducible.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultAction, FaultEvent, FaultPlan
from repro.resilience import ResilienceConfig
from repro.simulation.simulator import SimulationConfig, Simulator


def chaos_config(fault_plan, resilience, seed=42, max_operations=3000):
    return SimulationConfig(
        num_clients=4,
        connections_per_client=50,
        matching_nodes=2,
        max_operations=max_operations,
        warmup_fraction=0.0,
        seed=seed,
        num_shards=2,
        replication_factor=2,
        fault_plan=fault_plan,
        resilience=resilience,
    )


#: Seeded runs are deterministic, so scenario summaries are computed once
#: and shared across the assertions below (keeps the smoke suite fast).
_SUMMARIES = {}


def summarize(plan, resilience):
    cache_key = (plan.name, resilience.enabled)
    if cache_key not in _SUMMARIES:
        _SUMMARIES[cache_key] = Simulator(chaos_config(plan, resilience)).run().summary()
    return dict(_SUMMARIES[cache_key])


def success_rate(summary):
    return 1.0 - summary["request_error_rate"]


BROWNOUT = FaultPlan.brownout(shard=0, at=0.02, recover_at=0.4, slow_factor=5.0, drop_rate=0.3)
FLAKY = FaultPlan.flaky(shard=0, at=0.02, recover_at=0.4, drop_rate=0.45)


class TestChaosScenarios:
    @pytest.mark.parametrize(
        "plan", (BROWNOUT, FLAKY), ids=lambda plan: plan.name.split("/")[0]
    )
    def test_resilience_improves_availability(self, plan):
        off = summarize(plan, ResilienceConfig.off())
        on = summarize(plan, ResilienceConfig())
        assert success_rate(on) >= success_rate(off)
        assert on["request_error_rate"] < off["request_error_rate"]
        assert on["resilience_retries"] > 0
        assert on["resilience_retry_successes"] > 0

    @pytest.mark.parametrize(
        "plan", (BROWNOUT, FLAKY), ids=lambda plan: plan.name.split("/")[0]
    )
    def test_staleness_stays_within_the_degraded_budget(self, plan):
        resilience = ResilienceConfig()
        summary = summarize(plan, resilience)
        budget = resilience.stale_if_error.max_staleness
        assert summary["max_staleness_s"] <= budget

    def test_node_level_slow_triggers_winning_hedges(self):
        plan = FaultPlan(
            events=[
                FaultEvent(0.02, FaultAction.SLOW_SHARD, "s0:n0", magnitude=6.0),
                FaultEvent(0.5, FaultAction.RESTORE, "s0:n0"),
            ],
            name="slow-node",
        )
        on = summarize(plan, ResilienceConfig())
        off = summarize(plan, ResilienceConfig.off())
        assert on["hedged_reads"] > 0
        assert on["hedge_wins"] > 0
        # Hedging to the healthy replica beats waiting out the slow node.
        assert on["mean_read_latency_ms"] < off["mean_read_latency_ms"]

    def test_seeded_chaos_runs_are_exactly_reproducible(self):
        first = summarize(BROWNOUT, ResilienceConfig())
        second = Simulator(chaos_config(BROWNOUT, ResilienceConfig())).run().summary()
        assert first == second

    def test_crash_scenarios_still_run_with_resilience_attached(self):
        plan = FaultPlan(
            events=[
                FaultEvent(0.05, FaultAction.CRASH, "shard:0"),
                FaultEvent(0.3, FaultAction.RECOVER, "shard:0"),
            ],
            name="rolling-crash",
        )
        summary = Simulator(chaos_config(plan, ResilienceConfig())).run().summary()
        assert summary["faults_injected"] >= 1.0
        assert 0.0 <= summary["request_error_rate"] <= 1.0
