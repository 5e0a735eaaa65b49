"""Machine-independent cost guard for one uncached simulated operation.

Counts, around one ``Simulator._execute_operation`` of the uncached
baseline on a single server -- the client's call, the origin's work, the
pricing, the measurement and the completion's push back onto the event
queue --

* Python frames (``sys.setprofile`` ``call`` events), and
* all calls, Python and C (as ``cProfile`` and the benchmark's
  ``calls_per_op`` do),

for a record read and for a covered query whose result is unchanged since
its last execution.  A cacheless client calls the origin directly, each
level is priced by one pricer resolved when the deployment is built, a
latency draw runs no ``random.gauss`` frame, the completion is a bare heap
entry, and an unchanged covered query is answered from the collection's
stamped memo -- so a return to the cache chain, to per-request pricing
dispatch, to an event object per completion or to re-executing the query
fails here on any machine, without a wall-clock threshold.  Before, a read
cost 42 frames / 62 calls and a query 54 / 75; while the server ran its
reads through a staged read pipeline a read cost 25 / 31 and a query
29 / 35; now a read costs 23 / 29 and a query 23 / 29.

Each operation runs once unmeasured first, so the query's plan, the
collection's memo, the sampler's pending spare and every lazily filled table
answer the measured run the same way whatever ran earlier in the process.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.simulation import CachingMode, SimulationConfig, Simulator
from repro.workloads.dataset import DatasetSpec
from repro.workloads.operations import Operation, OperationType

#: (frames, all calls) budgets.
READ = (23, 29)
QUERY = (23, 29)


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

    # No collection inside the count: one would run ``gc.callbacks`` (a
    # hypothesis test earlier in the process installs one) as frames here.
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    frames -= 1  # the lambda itself
    return frames, frames + c_calls - 1  # the closing sys.setprofile(None) is seen as a c_call


def _simulator() -> Simulator:
    config = SimulationConfig(
        mode=CachingMode.UNCACHED,
        dataset=DatasetSpec(num_tables=1, documents_per_table=40, queries_per_table=4),
        num_clients=1,
        connections_per_client=1,
        max_operations=100,
        warmup_fraction=0.0,
        seed=3,
    )
    return Simulator(config)


def _cost(operation_for) -> tuple:
    """Frames and calls of the second of two executions of one operation."""
    simulator = _simulator()
    operation = operation_for(simulator.dataset)
    costs = []
    for _ in range(2):
        simulator._op_buffer = [operation]
        simulator._op_cursor = 0
        costs.append(_calls_during(lambda: simulator._execute_operation(0)))
        simulator.events.pop_if_before(float("inf"))  # the pushed completion
    assert simulator.total_operations == 2
    return costs[1]


def _read(dataset):
    tables, ids = dataset.document_targets()
    table, document_id = tables[7], ids[7]
    return Operation(OperationType.READ, table, document_id)


def _query(dataset):
    query = dataset.all_queries()[1]
    return Operation(OperationType.QUERY, query.collection, None, query)


def _within(cost, budget) -> bool:
    return cost[0] <= budget[0] and cost[1] <= budget[1]


def test_an_uncached_origin_read_fits_the_budget():
    cost = _cost(_read)
    assert _within(cost, READ), cost


def test_an_unchanged_uncached_query_fits_the_budget():
    cost = _cost(_query)
    assert _within(cost, QUERY), cost


def test_the_count_sees_what_it_claims_to():
    """Vacuity check: the completion push and the origin's work are inside
    the count -- a query whose memo misses costs more than one that hits."""
    simulator = _simulator()
    operation = _query(simulator.dataset)
    simulator._op_buffer = [operation]
    simulator._op_cursor = 0
    before = len(simulator.events)
    miss = _calls_during(lambda: simulator._execute_operation(0))
    assert len(simulator.events) == before + 1
    assert miss[1] > _cost(_query)[1]
