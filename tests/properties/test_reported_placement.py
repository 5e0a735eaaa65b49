"""The placement a cluster reports is the placement the simulator prices.

:class:`~repro.cluster.QuaestorCluster` records where each request ran
(``read_placement``, ``write_placement``, ``scatter_placement``), and the
simulator's fleet pricer charges origin capacity, gray slowness and hedges
to exactly those nodes.  Before the cluster reported them, the simulator
derived them itself from the router and the replica groups; the
``reference_*`` functions below keep that derivation.  The property drives
generated fleets -- 1-4 shards, RF 1-3, a crashed or promoted primary, gray
slow and flaky targets, with and without the resilience layer -- through
record reads at every consistency level, inserts, updates, deletes and
scatter queries, and checks that every read, write and scatter reports the
reference's nodes.  Only requests the cluster served are priced from a
placement (a refused one pays a probe round trip), so reads and writes are
compared when the cluster did not answer with the structured 503.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.clock import VirtualClock
from repro.cluster import QuaestorCluster
from repro.core.consistency import ConsistencyLevel
from repro.db import Query
from repro.replication import ReplicationConfig
from repro.resilience import ResilienceConfig
from repro.rest.messages import StatusCode
from repro.workloads.operations import Operation, OperationType

DOCUMENTS = 12


def reference_read(cluster, collection, document_id):
    """The serving node of a record read, derived after the read."""
    shard_id = cluster.router.shard_for_record(collection, document_id)
    return shard_id, cluster.groups[shard_id].last_served_node_id


def reference_write(cluster, operation):
    """The primary a write lands on, derived before the write."""
    shard_id = cluster.router.shard_for_operation(operation)
    return shard_id, cluster.groups[shard_id].primary_node.node_id


def reference_scatter(cluster):
    """Every live primary, which a scatter queries."""
    return [
        (group.shard_id, group.primary_node.node_id)
        for group in cluster.groups
        if group.primary_node.alive
    ]


@st.composite
def fleets(draw):
    num_shards = draw(st.integers(1, 4))
    replication_factor = draw(st.integers(1, 3))
    shard_targets = [f"shard:{shard}" for shard in range(num_shards)]
    node_targets = [
        f"s{shard}:n{node}" for shard in range(num_shards) for node in range(replication_factor)
    ]
    targets = st.sampled_from(shard_targets + node_targets)
    operations = st.lists(
        st.tuples(
            st.sampled_from(["read", "read", "update", "insert", "delete", "query"]),
            st.integers(0, DOCUMENTS - 1),
            st.sampled_from([None, *ConsistencyLevel]),
        ),
        min_size=1,
        max_size=30,
    )
    return {
        "num_shards": num_shards,
        "replication_factor": replication_factor,
        "resilient": draw(st.booleans()),
        "fault": draw(st.sampled_from(["none", "crash", "promote"])),
        "fault_shard": draw(st.integers(0, num_shards - 1)),
        "slow": draw(st.lists(st.tuples(targets, st.floats(1.5, 8.0)), max_size=2)),
        "flaky": draw(st.lists(st.tuples(targets, st.floats(0.1, 1.0)), max_size=2)),
        "fault_at": draw(st.integers(0, 30)),
        "operations": draw(operations),
        "seed": draw(st.integers(0, 2**16)),
    }


def _inject(cluster, fleet):
    primary = cluster.groups[fleet["fault_shard"]].primary_node_id
    if fleet["fault"] != "none":
        cluster.crash_node(primary)
    if fleet["fault"] == "promote":
        cluster.failover(fleet["fault_shard"])
    for target, factor in fleet["slow"]:
        cluster.slow_target(target, factor)
    for target, rate in fleet["flaky"]:
        cluster.flaky_target(target, rate)


@settings(max_examples=60, deadline=None)
@given(fleets())
def test_the_cluster_reports_the_placement_the_simulator_derived(fleet):
    clock = VirtualClock()
    replication = ReplicationConfig(replication_factor=fleet["replication_factor"])
    replication.reseed(fleet["seed"])
    cluster = QuaestorCluster(
        num_shards=fleet["num_shards"],
        clock=clock,
        replication=replication,
        resilience=ResilienceConfig(seed=fleet["seed"]) if fleet["resilient"] else None,
        gray_seed=fleet["seed"],
    )
    for index in range(DOCUMENTS):
        cluster.insert("posts", {"_id": f"p{index:02d}", "category": index % 3})
        clock.advance(0.1)
    clock.advance(2.0)

    unavailable = StatusCode.SERVICE_UNAVAILABLE
    compared = 0
    for position, (kind, index, level) in enumerate(fleet["operations"]):
        if position == fleet["fault_at"]:
            _inject(cluster, fleet)
        document_id = f"p{index:02d}"
        if kind == "read":
            response = cluster.read("posts", document_id, consistency=level)
            if response.status is not unavailable:
                assert cluster.read_placement == reference_read(cluster, "posts", document_id)
                compared += 1
        elif kind == "query":
            cluster.query(Query("posts", {"category": index % 3}))
            assert cluster.scatter_placement == reference_scatter(cluster)
            compared += 1
        else:
            if kind == "insert":
                new_id = f"n{position:02d}"
                operation = Operation(
                    OperationType.INSERT, "posts", new_id, None, {"_id": new_id, "category": 0}
                )
            elif kind == "update":
                operation = Operation(
                    OperationType.UPDATE, "posts", document_id, None, {"$set": {"views": position}}
                )
            else:
                operation = Operation(OperationType.DELETE, "posts", document_id)
            expected = reference_write(cluster, operation)
            if kind == "insert":
                response = cluster.insert("posts", operation.payload)
            elif kind == "update":
                response = cluster.update("posts", document_id, operation.payload)
            else:
                response = cluster.delete("posts", document_id)
            if response.status is not unavailable:
                assert cluster.write_placement == expected
                compared += 1
        if cluster.resilience_runtime is not None:
            cluster.resilience_runtime.take_trace()  # one trace per request
        clock.advance(0.05)
    assert compared or fleet["fault"] != "none" or fleet["flaky"]
