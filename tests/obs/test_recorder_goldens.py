"""Byte-level goldens for the three recorders' read-side encodings.

Serial-vs-parallel parity runs the *same* recorder on both sides, so it
cannot see a refactor that changes what both sides write.  These digests
were captured at the commit before the recorders became flat logs (PR 20's
parent, object-per-record ``Span`` / ``HistoryEvent`` storage) and pin
``canonical_trace_bytes``, the history ``canonical_bytes`` and
``canonical_metrics_bytes`` for three seeded configurations that between
them reach every recording site: request sampling, the cluster / pipeline /
replica-selection events, failover, gray faults, retries, hedges, breaker
fast-fails and stale-if-error serves.

Re-pin (only when recorded *content* is meant to change)::

    PYTHONPATH=src python tests/obs/test_recorder_goldens.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.faults import FaultPlan
from repro.obs import ObservabilityConfig, canonical_metrics_bytes, canonical_trace_bytes
from repro.resilience import ResilienceConfig
from repro.simulation import CachingMode, SimulationConfig, Simulator
from repro.verify.history import canonical_bytes
from repro.workloads import DatasetSpec, WorkloadSpec

GOLDEN_PATH = Path(__file__).with_name("golden_recorders.json")

_WRITE_MIX = WorkloadSpec(
    read_proportion=0.50, query_proportion=0.30, update_proportion=0.20, zipf_constant=0.9
)


def _fleet(seed: int, **overrides) -> SimulationConfig:
    return SimulationConfig(
        seed=seed,
        workload=_WRITE_MIX,
        dataset=DatasetSpec(num_tables=2, documents_per_table=200, queries_per_table=20),
        num_clients=4,
        connections_per_client=2,
        duration=30.0,
        max_operations=1_500,
        matching_nodes=2,
        record_history=True,
        observability=ObservabilityConfig(metrics_interval=0.5),
        **overrides,
    )


CONFIGS = {
    # Single server, every third request traced, a fine metrics grid.
    "single_server_sampled": lambda: SimulationConfig(
        mode=CachingMode.QUAESTOR,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(num_tables=2, documents_per_table=300, queries_per_table=30),
        num_clients=4,
        connections_per_client=50,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=60.0,
        max_operations=2_000,
        seed=13,
        record_history=True,
        observability=ObservabilityConfig(sample_every=3, metrics_interval=0.02),
    ),
    # 4 shards x RF 3, one primary crashes and recovers mid-run.
    "fleet_primary_crash": lambda: _fleet(
        29,
        num_shards=4,
        replication_factor=3,
        fault_plan=FaultPlan.primary_crash(shard=2, at=2.0, recover_at=6.0),
    ),
    # Gray faults with the resilience layer on: retries, hedges, breaker
    # fast-fails and stale-if-error serves are all on the recorded path.
    "gray_resilient": lambda: _fleet(
        32,
        num_shards=2,
        replication_factor=3,
        resilience=ResilienceConfig(),
        fault_plan=FaultPlan(
            events=(
                *FaultPlan.brownout(shard=0, at=2.0, recover_at=9.0, drop_rate=0.8).events,
                *FaultPlan.flaky(shard=1, at=3.0, recover_at=8.0).events,
            ),
            name="brownout+flaky",
        ),
    ),
}


def recorder_digests(config: SimulationConfig) -> dict:
    simulator = Simulator(config)
    simulator.run()
    trace_rows = simulator.trace_tuples()
    events = simulator.history_events()

    def sha(payload: bytes) -> str:
        return hashlib.sha256(payload).hexdigest()

    return {
        "spans": len(trace_rows),
        "events": len(events),
        "trace": sha(canonical_trace_bytes(trace_rows)),
        "history": sha(canonical_bytes(events)),
        "metrics": sha(canonical_metrics_bytes(simulator.metrics_state())),
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_recorded_bytes_match_the_parent_goldens(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    assert golden["spans"] > 0 and golden["events"] > 0
    assert recorder_digests(CONFIGS[name]()) == golden


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: recorder_digests(build()) for name, build in CONFIGS.items()}, indent=1)
        + "\n"
    )
    print(GOLDEN_PATH.read_text())
