"""Worker-count invariance and failure surfacing of the partitioned simulator.

The partition decomposition is a pure function of ``(config,
num_partitions)``; the worker count only chooses which process runs each
partition.  It may leave no trace in the merged results -- summary,
per-partition outcomes, history, trace and metrics state -- and these tests
pin that with exact equality, recorders on.  The second half reaches the
failure paths: a job that raises in its worker, a worker that dies, a pool
that hangs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultAction, FaultEvent, FaultPlan
from repro.obs import ObservabilityConfig, canonical_metrics_bytes, canonical_trace_bytes
from repro.resilience import ResilienceConfig
from repro.simulation import (
    CachingMode,
    ParallelSimulationError,
    ParallelSimulator,
    partition_simulation,
    pool,
)
from repro.simulation.parallel import parity_config
from repro.ttl import TTLEstimatorSpec
from repro.verify.history import canonical_bytes

PARTITIONS = 4

CRASH_PLAN = FaultPlan(
    events=[
        FaultEvent(0.02, FaultAction.CRASH, "shard:0"),
        FaultEvent(0.03, FaultAction.CRASH, "s3:n1"),
        FaultEvent(0.12, FaultAction.RECOVER, "shard:0"),
        FaultEvent(0.13, FaultAction.RECOVER, "s3:n1"),
    ],
    name="invariance-crashes",
)
GRAY_PLAN = FaultPlan(
    events=[
        FaultEvent(0.02, FaultAction.SLOW_SHARD, "shard:0", magnitude=4.0),
        FaultEvent(0.03, FaultAction.FLAKY_SHARD, "shard:2", magnitude=0.3),
        FaultEvent(0.04, FaultAction.SLOW_SHARD, "s3:n1", magnitude=6.0),
        FaultEvent(0.25, FaultAction.RESTORE, "shard:0"),
        FaultEvent(0.26, FaultAction.RESTORE, "shard:2"),
        FaultEvent(0.27, FaultAction.RESTORE, "s3:n1"),
    ],
    name="invariance-gray",
)


def recorded(mode: CachingMode, replication_factor: int, **overrides):
    """A 4-partition parity config with every recorder switched on."""
    return replace(
        parity_config(mode, replication_factor=replication_factor, num_partitions=PARTITIONS),
        record_history=True,
        observability=ObservabilityConfig.full(),
        **overrides,
    )


CASES = {
    f"{mode.value}/rf{replication_factor}": recorded(mode, replication_factor)
    for mode in (CachingMode.QUAESTOR, CachingMode.EBF_ONLY, CachingMode.CDN_ONLY)
    for replication_factor in (1, 3)
}
CASES["fault-plan"] = recorded(CachingMode.QUAESTOR, 3, fault_plan=CRASH_PLAN)
CASES["gray+resilience"] = recorded(
    CachingMode.QUAESTOR, 3, fault_plan=GRAY_PLAN, resilience=ResilienceConfig()
)


def canonical(summary: dict) -> str:
    return json.dumps(summary, sort_keys=False, separators=(",", ":"))


def run(config, num_workers: int):
    return ParallelSimulator(config, num_partitions=PARTITIONS, num_workers=num_workers).run()


@pytest.fixture(scope="module", params=sorted(CASES))
def by_workers(request):
    """One case run in this process and on 2 and 4 spawned workers."""
    config = CASES[request.param]
    return {workers: run(config, workers) for workers in (1, 2, 4)}


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", (2, 4))
    def test_spawned_workers_leave_no_trace(self, by_workers, workers):
        inline, spawned = by_workers[1], by_workers[workers]
        assert spawned.num_workers == workers
        assert canonical(spawned.summary()) == canonical(inline.summary())
        assert spawned.aggregate == inline.aggregate
        # Dataclass equality: ids, aggregates, counters and every recorder row.
        assert spawned.outcomes == inline.outcomes
        assert canonical_bytes(spawned.history_events()) == canonical_bytes(
            inline.history_events()
        )
        assert canonical_trace_bytes(spawned.trace) == canonical_trace_bytes(inline.trace)
        assert canonical_metrics_bytes(spawned.metrics) == canonical_metrics_bytes(
            inline.metrics
        )

    def test_the_recorders_were_on(self, by_workers):
        inline = by_workers[1]
        assert inline.history and inline.trace and inline.metrics is not None
        assert [outcome.partition_id for outcome in inline.outcomes] == list(range(PARTITIONS))

    def test_run_to_run_determinism(self):
        config = CASES["quaestor/rf3"]
        first, again = run(config, 2), run(config, 2)
        assert canonical(again.summary()) == canonical(first.summary())
        assert again.outcomes == first.outcomes


class TestEngineConfiguration:
    def test_worker_count_clamps_to_partitions(self):
        engine = ParallelSimulator(CASES["quaestor/rf1"], num_partitions=4, num_workers=16)
        assert engine.num_workers == 4
        assert len(engine.jobs) == 4

    def test_default_worker_count_is_the_usable_cpus(self):
        engine = ParallelSimulator(CASES["quaestor/rf1"], num_partitions=4)
        assert engine.num_workers == min(pool.usable_cpus(), 4)
        if hasattr(os, "sched_getaffinity"):
            assert pool.usable_cpus() == len(os.sched_getaffinity(0))

    def test_partitions_must_divide_shards(self):
        with pytest.raises(ConfigurationError):
            partition_simulation(CASES["quaestor/rf1"], num_partitions=3)

    def test_every_partition_needs_a_client(self):
        # 8 shards but only 4 clients: 8 partitions would leave some without any.
        with pytest.raises(ConfigurationError):
            partition_simulation(replace(CASES["quaestor/rf1"], num_shards=8), num_partitions=8)

    def test_zero_workers_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            ParallelSimulator(CASES["quaestor/rf1"], num_partitions=4, num_workers=0)

    @pytest.mark.parametrize("count", [2.0, True])
    def test_a_partition_count_must_be_an_int(self, count):
        # 2.0 used to fail in range() with a bare TypeError; True ran one partition.
        with pytest.raises(ConfigurationError, match="num_partitions"):
            partition_simulation(CASES["quaestor/rf1"], count)

    @pytest.mark.parametrize("count", [1.5, True])
    def test_a_worker_count_must_be_an_int(self, count):
        # Both used to be accepted and stored as given.
        with pytest.raises(ConfigurationError, match="num_workers"):
            ParallelSimulator(CASES["quaestor/rf1"], 2, num_workers=count)


#: Valid as a config; its estimator only fails to build inside a partition.
BROKEN_IN_THE_WORKER = replace(
    CASES["quaestor/rf1"],
    quaestor=replace(
        CASES["quaestor/rf1"].quaestor, ttl_estimator=TTLEstimatorSpec.of("static", ttl=-1.0)
    ),
)


class TestWorkerFailures:
    def test_a_job_raising_in_its_worker_carries_the_worker_traceback(self):
        # A negative static TTL only fails once the worker builds its estimator.
        engine = ParallelSimulator(BROKEN_IN_THE_WORKER, num_partitions=4, num_workers=2)
        with pytest.raises(ParallelSimulationError) as failure:
            engine.run()
        message = str(failure.value)
        assert "ttl must be non-negative" in message
        assert "Traceback (most recent call last)" in message
        assert "run_partition" in message  # a frame only the worker executed

    def test_the_same_job_raises_plainly_in_process(self):
        with pytest.raises(ValueError, match="ttl must be non-negative"):
            ParallelSimulator(BROKEN_IN_THE_WORKER, num_partitions=4, num_workers=1).run()

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
