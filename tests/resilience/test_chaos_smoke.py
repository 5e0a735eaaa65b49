"""End-to-end chaos smoke: seeded gray-failure runs, resilience on vs off.

Two sets of seeded scenarios.  The smoke runs (3 000 operations at seed 42)
check that for every brownout/flaky scenario the resilience layer improves
availability (success rate) without blowing the configured staleness
budget, that hedging beats a slow node, and that seeded runs are exactly
reproducible.  The chaos grid (``TestChaosGrid``: brownout, flaky shard and
rolling primary crashes on 2 shards at RF 2, seed 13, 6 000 operations, each
with resilience off and on) pins every arm's error rate and staleness bound
exactly and keeps the directional claims a re-pin may not drop.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultAction, FaultEvent, FaultPlan
from repro.resilience import ResilienceConfig
from repro.simulation.simulator import CachingMode, SimulationConfig, Simulator
from repro.workloads import DatasetSpec, WorkloadSpec


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


def grid_config(fault_plan, resilience):
    """The chaos grid's cell: the full system (QUAESTOR mode) on 2 shards at
    RF 2.  No warm-up: the fault window sits at the very start of the run,
    and the availability metrics must *measure* it."""
    return SimulationConfig(
        mode=CachingMode.QUAESTOR,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(num_tables=2, documents_per_table=300, queries_per_table=30),
        num_clients=4,
        connections_per_client=50,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=60.0,
        warmup_fraction=0.0,
        max_operations=6_000,
        seed=13,
        num_shards=2,
        replication_factor=2,
        fault_plan=fault_plan,
        failover_detection_delay=0.03,
        resilience=resilience,
    )


#: Seeded runs are deterministic, so scenario summaries are computed once
#: and shared across the assertions below (keeps the smoke suite fast).
_SUMMARIES = {}


def summarize(plan, resilience, config=chaos_config):
    cache_key = (config.__name__, plan.name, resilience is not None)
    if cache_key not in _SUMMARIES:
        _SUMMARIES[cache_key] = Simulator(config(plan, resilience)).run().summary()
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
        off = summarize(plan, None)
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
        off = summarize(plan, None)
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


ROLLING_CRASHES = FaultPlan.rolling_primary_crashes(
    shards=[0, 1], start=0.02, spacing=0.06, downtime=0.15
)
GRID = {"brownout": BROWNOUT, "flaky-shard": FLAKY, "rolling-crashes": ROLLING_CRASHES}
#: Cells whose faults are gray (slow or flaky, not fail-stop): resilience must
#: win there.  Rolling crashes are the failover subsystem's job.
GRAY_CELLS = ("brownout", "flaky-shard")

#: ``(request_error_rate, max_staleness_s)`` of each cell's off and on arm.
GRID_PINS = {
    ("brownout", "off"): (0.004666666666666667, 0.21782715332092178),
    ("brownout", "on"): (0.00016666666666666666, 0.21582921976516214),
    ("flaky-shard", "off"): (0.006, 0.21593092594828348),
    ("flaky-shard", "on"): (0.0013333333333333333, 0.21576255309849549),
    ("rolling-crashes", "off"): (0.0005, 0.21916048665425497),
    ("rolling-crashes", "on"): (0.0005, 0.21922715332092163),
}

#: The resilience-on success rate of each gray cell at 20 000 operations, the
#: grid's full size.  The 6 000-op cell may fall below it by at most
#: ``FULL_RUN_TOLERANCE``, so a re-pin cannot trade the availability win away.
FULL_RUN_ON_SUCCESS = {"brownout": 0.99995, "flaky-shard": 0.99945}
FULL_RUN_TOLERANCE = 0.002


def grid_summary(cell, arm):
    resilience = ResilienceConfig() if arm == "on" else None
    return summarize(GRID[cell], resilience, config=grid_config)


class TestChaosGrid:
    @pytest.mark.parametrize("cell, arm", sorted(GRID_PINS))
    def test_each_arm_is_pinned(self, cell, arm):
        summary = grid_summary(cell, arm)
        pinned = (summary["request_error_rate"], summary["max_staleness_s"])
        assert pinned == GRID_PINS[cell, arm]

    @pytest.mark.parametrize("cell", GRAY_CELLS)
    def test_resilience_wins_on_gray_cells(self, cell):
        off = grid_summary(cell, "off")
        on = grid_summary(cell, "on")
        # The chaos window is measured: without protection requests fail.
        assert off["request_error_rate"] > 0.0
        assert success_rate(on) > success_rate(off)
        assert success_rate(on) >= FULL_RUN_ON_SUCCESS[cell] - FULL_RUN_TOLERANCE

    @pytest.mark.parametrize("cell", sorted(GRID))
    def test_protected_staleness_stays_within_the_degraded_budget(self, cell):
        budget = ResilienceConfig().stale_if_error.max_staleness
        assert grid_summary(cell, "on")["max_staleness_s"] <= budget
