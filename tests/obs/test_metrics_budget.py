"""Switching metrics on adds no calls to a measured operation.

The registry is a read-only view over the counters the run keeps anyway,
so with ``ObservabilityConfig(trace=False)`` one measured single-server
read, query or write must cost exactly the Python frames and calls it costs
with observability off.  The one allowed price is epoch sampling: an
operation that crosses a ``metrics_interval`` boundary snapshots the series
first, which the last test pins as visible to the count.
"""

from __future__ import annotations

import gc
import math
import sys

import pytest

from repro.obs import ObservabilityConfig
from repro.simulation import CachingMode, SimulationConfig, Simulator
from repro.workloads.dataset import DatasetSpec
from repro.workloads.operations import Operation, OperationType


@pytest.fixture(autouse=True)
def snapshot_guard():
    """Replaces the suite's guard: its wrapper around the install seam adds
    frames that are not the path's."""
    yield


def _calls_during(function):
    frames = c_calls = 0

    def profiler(frame, event, arg):
        nonlocal frames, c_calls
        if event == "call":
            frames += 1
        elif event == "c_call":
            c_calls += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return frames, frames + c_calls


def _simulator(observability) -> Simulator:
    config = SimulationConfig(
        mode=CachingMode.QUAESTOR,
        dataset=DatasetSpec(num_tables=1, documents_per_table=40, queries_per_table=4),
        num_clients=1,
        connections_per_client=1,
        max_operations=100,
        warmup_fraction=0.0,
        seed=3,
        observability=observability,
    )
    return Simulator(config)


def _operations(dataset):
    tables, ids = dataset.document_targets()
    table, document_id = tables[7], ids[7]
    query = dataset.all_queries()[1]
    return {
        "read": Operation(OperationType.READ, table, document_id),
        "query": Operation(OperationType.QUERY, query.collection, None, query),
        "write": Operation(OperationType.UPDATE, table, document_id, payload={"n": 1}),
    }


def _cost(observability, name, at=0.0) -> tuple:
    """Frames and calls of the second of two executions of one operation,
    the second started at sim time ``at``."""
    simulator = _simulator(observability)
    operation = _operations(simulator.dataset)[name]
    costs = []
    for run in range(2):
        if run:
            simulator.clock.advance_to(at)
        simulator._op_buffer = [operation]
        simulator._op_cursor = 0
        costs.append(_calls_during(lambda: simulator._execute_operation(0)))
        simulator.events.pop_if_before(math.inf)  # the pushed completion
    return costs[1]


@pytest.mark.parametrize("name", ["read", "query", "write"])
def test_metrics_on_cost_what_metrics_off_costs(name):
    # Each ``_cost`` builds a simulator, which empties the record-tag memo,
    # and counts the second of two executions: both counted runs meet the
    # memo their own first execution filled.
    metrics_only = ObservabilityConfig(trace=False, metrics_interval=math.inf)
    assert _cost(metrics_only, name) == _cost(None, name)


def test_the_count_sees_epoch_sampling():
    """Vacuity check: an operation that crosses an epoch boundary pays for
    the snapshot, so the equality above is not blind to the registry."""
    sampling = ObservabilityConfig(trace=False, metrics_interval=0.5)
    assert _cost(sampling, "read", at=1.0)[1] > _cost(None, "read", at=1.0)[1]
