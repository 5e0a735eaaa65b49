"""Machine-independent cost guard for the fleet request path.

A request to a healthy shard of a replicated, resilient deployment should pay
for its hop -- placement, the replica group's routing, the serving node's
work -- and not for the retry, breaker and gray-failure machinery around it.
This test counts, around four requests through the :class:`ClusterClient`
of a 4-shard, RF 3 deployment with the resilience layer at its defaults and
no fault in force,

* Python frames (``sys.setprofile`` ``call`` events, as
  ``tests/core/test_write_path_budget.py`` does), and
* all calls, Python and C (as ``cProfile`` and the benchmark's
  ``calls_per_op`` do),

so a return to a twin "plain" path beside a resilient one, to placement
hashed once per consumer, to per-request target strings and breaker probes
that run the breaker's full state machine, or to per-read candidate and
delivery lists fails here on any machine, without a wall-clock threshold.
Before the path became one loop these requests cost (frames / calls): a
replica-served read 76 / 102, a primary-served read 86 / 113, an update
90 / 135, the scatter 734 / 1123.  Before a record read took its document
and version in one probe, a primary-served read cost 54 / 76; before each
shard handed its versions back with its documents and the merge carried
them through its sort, the scatter cost 627 / 1014.  While each shard's
server ran its reads through a staged read pipeline, a primary-served read
cost 49 / 67 and the scatter 520 / 795.  While the router counted reads and
writes in a separate per-shard statistics table, a replica-served read cost
42 / 60, a primary-served read 47 / 65 and an update 59 / 96.

Every request runs once unmeasured first -- a read or update on the
deployment it is then measured on, the scatter on a twin (a repeat on the
same deployment would find its query already admitted): placement memos,
delivered replication logs, the process-wide hash memos and the record-tag
memo then answer the measured run the same way whatever ran earlier in the
process, which makes the counts exact.  The tag memo lives for one
simulation run (a ``Simulator`` empties it when it is built); no simulator
runs here, so the unmeasured request is what fills it.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.clock import VirtualClock
from repro.cluster import ClusterClient, QuaestorCluster
from repro.db import Query
from repro.db.query import record_key
from repro.replication import ReplicationConfig
from repro.resilience import ResilienceConfig

#: (frames, all calls) budgets.
REPLICA_READ = (41, 59)
PRIMARY_READ = (46, 64)
UPDATE = (58, 95)
SCATTER = (484, 755)


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


def _deployment(resilience=True):
    """4 shards x RF 3, 40 indexed posts, every replica caught up."""
    clock = VirtualClock()
    replication = ReplicationConfig(replication_factor=3)
    replication.reseed(3)
    cluster = QuaestorCluster(
        num_shards=4,
        clock=clock,
        replication=replication,
        resilience=ResilienceConfig() if resilience else None,
    )
    facade = ClusterClient(cluster)
    for number in range(40):
        facade.handle_insert("posts", {"_id": f"d{number:03d}", "category": number % 4})
    clock.advance(5.0)
    return cluster, facade


def _read_costs(resilience=True):
    """``{"replica": cost, "primary": cost}`` of a warm record read."""
    cluster, facade = _deployment(resilience)
    group = cluster.groups[cluster.router.ring.shard_for(record_key("posts", "d007"))]
    costs = {}
    for _ in range(3):  # the rotation: primary, replica, replica
        facade.handle_read("posts", "d007")
    for _ in range(3):
        cost = _calls_during(lambda: facade.handle_read("posts", "d007"))
        served_by = group.last_served_node_id
        costs.setdefault("primary" if served_by == group.primary_node_id else "replica", cost)
    return costs


def _update_cost(resilience=True):
    _cluster, facade = _deployment(resilience)
    facade.handle_update("posts", "d011", {"$set": {"views": 1}})
    return _calls_during(lambda: facade.handle_update("posts", "d011", {"$set": {"views": 2}}))


def _scatter_cost(resilience=True):
    """A query every shard admits, first scattered on a twin deployment."""
    query = Query("posts", {"category": 2})
    _twin, twin = _deployment(resilience)
    twin.handle_query(query)
    cluster, facade = _deployment(resilience)
    cost = _calls_during(lambda: facade.handle_query(query))
    assert cluster.counters.get("scatter_queries_aborted") == 0
    assert facade.handle_query(query).is_cacheable
    return cost


def _within(cost, budget) -> bool:
    return cost[0] <= budget[0] and cost[1] <= budget[1]


def test_a_replica_served_read_fits_the_budget():
    cost = _read_costs()["replica"]
    assert _within(cost, REPLICA_READ), cost


def test_a_primary_served_read_fits_the_budget():
    cost = _read_costs()["primary"]
    assert _within(cost, PRIMARY_READ), cost


def test_an_update_fits_the_budget():
    cost = _update_cost()
    assert _within(cost, UPDATE), cost


def test_an_all_admitted_scatter_fits_the_budget():
    cost = _scatter_cost()
    assert _within(cost, SCATTER), cost


def test_no_runtime_costs_no_more_than_an_idle_runtime():
    """Without a resilience runtime the one path makes no policy call, so it
    can only be cheaper than the same request with an idle runtime."""
    on, off = _read_costs(True), _read_costs(False)
    for served in ("replica", "primary"):
        assert off[served][0] <= on[served][0], (served, off, on)
    assert _update_cost(False)[0] <= _update_cost(True)[0]
    assert _scatter_cost(False)[0] <= _scatter_cost(True)[0]


def test_the_count_sees_what_it_claims_to():
    """Vacuity check: the breaker checks of an idle runtime and the drop
    checks of a gray condition in force elsewhere are both visible to the
    count."""
    on, off = _read_costs(True), _read_costs(False)
    assert on["replica"][0] > off["replica"][0]

    cluster, facade = _deployment()
    shard_id = cluster.router.ring.shard_for(record_key("posts", "d007"))
    cluster.slow_target(f"shard:{(shard_id + 1) % 4}", 2.0)  # not the read's shard
    for _ in range(3):
        facade.handle_read("posts", "d007")
    gray = [_calls_during(lambda: facade.handle_read("posts", "d007")) for _ in range(3)]
    assert min(frames for frames, _calls in gray) > REPLICA_READ[0]
