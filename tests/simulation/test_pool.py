"""The process pool: independent jobs in worker processes, in job order.

``map_in_processes`` is the one way the repo uses more than one core, and
only across independent runs.  These tests reach its failure paths (a job
that raises in its worker, a worker that dies, a pool that hangs) and hold
seeded runs mapped over spawned workers to the same runs done in this
process, recorders on -- every caching mode that runs a fleet, both
replication factors, fail-stop faults and gray faults with resilience: no
state leaks between jobs that share a worker and nothing drifts in pickling.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

import pytest

from repro.faults import FaultAction, FaultEvent, FaultPlan
from repro.obs import ObservabilityConfig, canonical_metrics_bytes, canonical_trace_bytes
from repro.resilience import ResilienceConfig
from repro.simulation import CachingMode, ParallelSimulationError, SimulationConfig, Simulator, pool
from repro.verify.history import canonical_bytes
from repro.workloads import DatasetSpec, WorkloadSpec


def _fail_in_the_job(value: int) -> int:
    raise ValueError(f"job {value} refused")


def _job_that_raises(value: int) -> int:
    return _fail_in_the_job(value)


def _recorded(config: SimulationConfig) -> tuple:
    """Run ``config``: its summary and the canonical bytes of every recorder."""
    simulator = Simulator(config)
    summary = simulator.run().summary()
    return (
        summary,
        canonical_bytes(simulator.history_events()),
        canonical_trace_bytes(simulator.trace_tuples()),
        canonical_metrics_bytes(simulator.metrics_state()),
    )


def _seeded_run(seed: int) -> tuple:
    """One small faulted fleet run, history and tracing on: its summary and
    the canonical bytes of every recorder."""
    return _recorded(SimulationConfig(
        mode=CachingMode.QUAESTOR,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(num_tables=2, documents_per_table=60, queries_per_table=6),
        num_clients=2,
        connections_per_client=10,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=30.0,
        max_operations=300,
        seed=seed,
        num_shards=2,
        replication_factor=3,
        record_history=True,
        observability=ObservabilityConfig.full(),
        fault_plan=FaultPlan.primary_crash(shard=0, at=0.02, recover_at=0.12),
    ))


class TestWorkerFailures:
    def test_a_job_raising_in_its_worker_carries_the_worker_traceback(self):
        with pytest.raises(ParallelSimulationError) as failure:
            pool.map_in_processes(_job_that_raises, [1, 2, 3], num_workers=2)
        message = str(failure.value)
        assert "job 1 refused" in message
        assert "Traceback (most recent call last)" in message
        assert "_fail_in_the_job" in message  # a frame only the worker executed

    def test_the_same_job_raises_plainly_in_process(self):
        with pytest.raises(ValueError, match="job 1 refused"):
            pool.map_in_processes(_job_that_raises, [1, 2, 3], num_workers=1)

    def test_a_dead_worker_is_an_error_not_a_hang(self):
        with pytest.raises(ParallelSimulationError, match="died"):
            pool.map_in_processes(os._exit, [1, 1, 1], num_workers=2)

    def test_a_hung_pool_times_out_and_is_killed(self, monkeypatch):
        monkeypatch.setattr(pool, "WORKER_TIMEOUT", 0.5)
        started = time.monotonic()
        with pytest.raises(ParallelSimulationError, match="no result"):
            pool.map_in_processes(time.sleep, [60, 60, 60], num_workers=2)
        # Returned once the workers were killed, not once they woke up.
        assert time.monotonic() - started < 30

    def test_results_come_back_in_job_order(self):
        assert pool.map_in_processes(abs, [-3, 2, -1, 0], num_workers=2) == [3, 2, 1, 0]


def test_usable_cpus_honours_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert pool.usable_cpus() == len(os.sched_getaffinity(0))
    assert pool.usable_cpus() >= 1


def test_seeded_runs_in_workers_equal_the_same_runs_in_process():
    # Three jobs on two workers: some worker runs a second job after another
    # one, and the repeated seed must come out as it did the first time.
    seeds = [7, 8, 7]
    spawned = pool.map_in_processes(_seeded_run, seeds, num_workers=2)
    in_process = [_seeded_run(seed) for seed in seeds[:2]]
    assert spawned == in_process + in_process[:1]
    first, second = in_process
    assert first[0] != second[0]  # the seeds really differ
    assert all(recorded for recorded in first[1:])  # every recorder was on
    assert first[0]["faults_injected"] > 0


CRASH_PLAN = FaultPlan(
    events=[
        FaultEvent(0.02, FaultAction.CRASH, "shard:0"),
        FaultEvent(0.03, FaultAction.CRASH, "s1:n1"),
        FaultEvent(0.12, FaultAction.RECOVER, "shard:0"),
        FaultEvent(0.13, FaultAction.RECOVER, "s1:n1"),
    ],
    name="pool-crashes",
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
    name="pool-gray",
)


def _case(mode: CachingMode, replication_factor: int, **overrides) -> SimulationConfig:
    """A small two-shard run with every recorder switched on."""
    config = SimulationConfig(
        mode=mode,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(num_tables=2, documents_per_table=60, queries_per_table=6),
        num_clients=2,
        connections_per_client=10,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=30.0,
        max_operations=240,
        seed=11,
        num_shards=2,
        replication_factor=replication_factor,
        record_history=True,
        observability=ObservabilityConfig.full(),
    )
    return replace(config, **overrides)


#: Every kind of config a verify cell may hand to a worker: each caching mode
#: that runs a fleet, both replication factors, fail-stop faults, and gray
#: faults with the resilience layer (retry jitter and gray drop draws).
CASES = {
    f"{mode.value}/rf{replication_factor}": _case(mode, replication_factor)
    for mode in (CachingMode.QUAESTOR, CachingMode.EBF_ONLY, CachingMode.CDN_ONLY)
    for replication_factor in (1, 3)
}
CASES["fault-plan"] = _case(CachingMode.QUAESTOR, 3, fault_plan=CRASH_PLAN)
CASES["gray+resilience"] = _case(
    CachingMode.QUAESTOR, 3, fault_plan=GRAY_PLAN, resilience=ResilienceConfig()
)
NAMES = sorted(CASES)


@pytest.fixture(scope="module")
def by_workers():
    """Every case run in this process, and all of them mapped over 2 and 4
    spawned workers (one pool per worker count, so jobs share workers)."""
    configs = [CASES[name] for name in NAMES]
    return {
        workers: dict(zip(NAMES, pool.map_in_processes(_recorded, configs, num_workers=workers)))
        for workers in (1, 2, 4)
    }


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", (2, 4))
    @pytest.mark.parametrize("name", NAMES)
    def test_spawned_workers_leave_no_trace(self, by_workers, name, workers):
        inline, spawned = by_workers[1][name], by_workers[workers][name]
        assert json.dumps(spawned[0]) == json.dumps(inline[0])  # key order too
        assert spawned[1:] == inline[1:]

    @pytest.mark.parametrize("name", NAMES)
    def test_the_recorders_were_on(self, by_workers, name):
        summary, history, trace, metrics = by_workers[1][name]
        assert history and trace and metrics
        assert summary["throughput"] > 0
        assert ("faults_injected" in summary) == (CASES[name].fault_plan is not None)
        assert ("resilience_retries" in summary) == (CASES[name].resilience is not None)
        # The faults fired inside the run, and the gray window made retries.
        assert summary.get("faults_injected", 1.0) > 0
        assert summary.get("resilience_retries", 1.0) > 0
