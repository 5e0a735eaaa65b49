"""The recorders retain nothing the cyclic collector has to track.

A small fleet run (2 shards x RF 3, a brownout, resilience) with every
recorder on -- history, tracing, metrics -- must

* create **no** ``Span`` and no ``HistoryEvent`` until the read side asks for
  them (``trace_spans()`` / ``history_events()``), and
* retain a number of GC-tracked objects that does **not grow with the number
  of recorded events**: the recorder-attributable part (run with recorders
  on minus the same seeded run with them off) is the same handful of lists
  and bound metric children at N and at 2N operations.

Both fail at PR 20's parent, whose recorders kept one ``Span`` (plus its
attrs ``dict``) per span and one frozen ``HistoryEvent`` per event: there the
first census finds thousands of each and the attributable count grows by
more than five objects per operation.
"""

from __future__ import annotations

import gc
from collections import Counter

from repro.faults import FaultPlan
from repro.obs import ObservabilityConfig, Span
from repro.resilience import ResilienceConfig
from repro.simulation import SimulationConfig, Simulator
from repro.verify.history import HistoryEvent
from repro.workloads import DatasetSpec, WorkloadSpec

#: One generator chunk, so the N-operation run is a prefix of the 2N one.
OPERATIONS = 512


def fleet_config(operations: int, recorders: bool) -> SimulationConfig:
    return SimulationConfig(
        seed=47,
        workload=WorkloadSpec(
            read_proportion=0.5, query_proportion=0.3, update_proportion=0.2, zipf_constant=0.9
        ),
        dataset=DatasetSpec(num_tables=2, documents_per_table=200, queries_per_table=20),
        num_shards=2,
        replication_factor=3,
        num_clients=4,
        connections_per_client=2,
        duration=60.0,
        max_operations=operations,
        matching_nodes=2,
        resilience=ResilienceConfig(),
        fault_plan=FaultPlan.brownout(shard=0, at=1.0, recover_at=3.0),
        record_history=recorders,
        # One closing snapshot only: the time series is per sim-second, not per event.
        observability=ObservabilityConfig(metrics_interval=1e6) if recorders else None,
    )


def census() -> Counter:
    # CPython untracks a tuple only once every item is untracked, checking
    # each tuple once per collection: a nested tuple the first pass reached
    # before its items stays tracked until the next.  The second pass makes
    # the count exact instead of dependent on where collections fell.
    gc.collect()
    gc.collect()
    return Counter(type(item) for item in gc.get_objects())


def run_and_count(operations: int, recorders: bool):
    """Run to completion; returns (simulator, GC-tracked objects the run retained)."""
    simulator = Simulator(fleet_config(operations, recorders))
    before = census()
    simulator.run()
    after = census()
    return simulator, sum(after.values()) - sum(before.values()), after


def test_no_read_side_objects_exist_until_asked_for():
    simulator, _retained, after = run_and_count(OPERATIONS, recorders=True)
    assert len(simulator.tracer) > 2 * OPERATIONS and len(simulator.history) >= OPERATIONS
    assert after[Span] == 0
    assert after[HistoryEvent] == 0
    spans, events = simulator.trace_spans(), simulator.history_events()
    assert len(spans) == len(simulator.tracer) and len(events) == len(simulator.history)
    now = census()
    assert now[Span] == len(spans) and now[HistoryEvent] == len(events)


def test_retained_objects_do_not_grow_with_recorded_events():
    # Process-wide memo tables (hash pairs, ...) fill on first sight of a key
    # and would be charged to whichever run came first: settle them
    # beforehand.  The record-tag memo is each run's own (a ``Simulator``
    # empties it), filled alike by the two runs of a pair.
    run_and_count(2 * OPERATIONS, recorders=True)
    attributable = []
    recorded = []
    for operations in (OPERATIONS, 2 * OPERATIONS):
        _plain, retained_off, _ = run_and_count(operations, recorders=False)
        simulator, retained_on, _ = run_and_count(operations, recorders=True)
        attributable.append(retained_on - retained_off)
        recorded.append(len(simulator.tracer) + len(simulator.history))
    assert recorded[1] - recorded[0] > 4 * OPERATIONS  # thousands more events recorded ...
    # ... for the same few retained objects (a new label set may bind a child or two).
    assert attributable[1] - attributable[0] <= 5
    assert attributable[0] <= 100
