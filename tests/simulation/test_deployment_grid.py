"""Every caching mode on every deployment the fleet offers, in one process.

Four deployments -- one node per shard, RF 3, RF 3 with fail-stop crashes,
RF 3 with gray faults under the resilience layer -- crossed with the four
caching modes of Section 6.2.  Each cell is run twice by two fresh
simulators in this process: the second run must reproduce the first byte
for byte (nothing a run leaves behind in the process may change the next
one), its summary must carry exactly the blocks the deployment asks for,
and the mode's cache tiers must stay the ones it has.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.faults import FaultAction, FaultEvent, FaultPlan
from repro.resilience import ResilienceConfig
from repro.simulation import CachingMode, SimulationConfig, Simulator
from repro.workloads import DatasetSpec, WorkloadSpec

CRASH_PLAN = FaultPlan(
    events=[
        FaultEvent(0.02, FaultAction.CRASH, "shard:0"),
        FaultEvent(0.03, FaultAction.CRASH, "s1:n1"),
        FaultEvent(0.12, FaultAction.RECOVER, "shard:0"),
        FaultEvent(0.13, FaultAction.RECOVER, "s1:n1"),
    ],
    name="grid-crashes",
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
    name="grid-gray",
)
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


def grid_config(mode: CachingMode, deployment: str) -> SimulationConfig:
    base = SimulationConfig(
        mode=mode,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(num_tables=2, documents_per_table=60, queries_per_table=6),
        num_clients=2,
        connections_per_client=10,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=30.0,
        max_operations=240,
        seed=42,
        num_shards=2,
    )
    return replace(base, **DEPLOYMENTS[deployment])


def canonical(summary: dict) -> str:
    """Byte-exact serialised form (also pins key order)."""
    return json.dumps(summary, sort_keys=False, separators=(",", ":"))


@pytest.mark.parametrize("mode", tuple(CachingMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
def test_each_mode_runs_each_deployment_reproducibly(mode, deployment):
    config = grid_config(mode, deployment)
    first = Simulator(config).run().summary()
    again = Simulator(config).run().summary()
    assert canonical(again) == canonical(first)
    assert first["throughput"] > 0
    assert ("request_error_rate" in first) == (deployment != "rf1")
    assert ("faults_injected" in first) == ("faults" in deployment or "gray" in deployment)
    assert ("resilience_retries" in first) == (deployment == "rf3+gray+resilience")
    assert first.get("faults_injected", 1.0) > 0  # the plan fired inside the run
    if not mode.uses_client_cache:
        assert first["client_read_hit_rate"] == first["client_query_hit_rate"] == 0.0
    if not mode.uses_cdn:
        assert first["cdn_read_hit_rate"] == first["cdn_query_hit_rate"] == 0.0
