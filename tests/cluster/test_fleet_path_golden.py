"""The fleet request path against responses pinned before it became one path.

``golden_fleet_path.json`` was captured by running :func:`run_cells` below
against the deployment that still kept a separate "plain" read and write
path beside the resilient one, for the resilience-off deployments that
path served.  Each cell is a replication factor (1 or 3) with the primary of
shard 0 alive or crashed, driven through record reads at every consistency
level, inserts, updates, deletes, a write batch and scatter queries.  The
one remaining path must reproduce every response byte for byte and leave
the same cluster counters, replica-group counters and statistics behind.
Responses are pinned as digests of their canonical JSON (status, ETag,
Cache-Control and body); the counters and statistics are pinned in the clear.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.clock import VirtualClock
from repro.cluster import ClusterClient, QuaestorCluster
from repro.core.consistency import ConsistencyLevel
from repro.db import Query
from repro.replication import ReplicationConfig
from repro.workloads.operations import Operation, OperationType

GOLDEN_PATH = Path(__file__).parent / "golden_fleet_path.json"

CELLS = [(1, False), (1, True), (3, False), (3, True)]


def digest(response) -> str:
    """Status, ETag, Cache-Control and body, as a short canonical digest."""
    canonical = json.dumps(
        [
            int(response.status),
            response.etag,
            response.cache_control.max_age,
            response.cache_control.s_maxage,
            response.cache_control.no_store,
            response.body,
        ],
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run_cell(replication_factor: int, crash_primary: bool) -> dict:
    clock = VirtualClock()
    replication = ReplicationConfig(replication_factor=replication_factor)
    replication.reseed(7)
    cluster = QuaestorCluster(num_shards=2, clock=clock, replication=replication)
    facade = ClusterClient(cluster)
    responses = []

    def record(response):
        responses.append([int(response.status), digest(response)])

    for index in range(12):
        record(facade.handle_insert("posts", {"_id": f"p{index:02d}", "category": index % 3}))
        clock.advance(0.1)
    clock.advance(2.0)  # the replicas apply everything shipped so far
    if crash_primary:
        cluster.crash_node(cluster.groups[0].primary_node_id)

    frontier = clock.now() - 1.0
    for level in (None, *ConsistencyLevel):
        for index in range(6):
            record(
                facade.handle_read(
                    "posts", f"p{index:02d}", consistency=level, min_timestamp=frontier
                )
            )
    record(facade.handle_query(Query("posts", {"category": 1})))
    window = Query("posts", {}, sort=(("category", -1), ("_id", 1)), limit=4, offset=1)
    record(facade.handle_query(window))

    for index in range(6):
        record(facade.handle_update("posts", f"p{index:02d}", {"$inc": {"category": 3}}))
    record(facade.handle_delete("posts", "p07"))
    record(facade.handle_delete("posts", "p08"))
    record(facade.handle_insert("posts", {"_id": "q00", "category": 2}))
    for response in facade.handle_write_batch(
        [
            Operation(OperationType.INSERT, "posts", "q01", payload={"_id": "q01", "category": 0}),
            Operation(OperationType.UPDATE, "posts", "p09", payload={"$set": {"category": 5}}),
            Operation(OperationType.DELETE, "posts", "p10"),
            Operation(OperationType.UPDATE, "posts", "p11", payload={"$set": {"category": 4}}),
        ]
    ):
        record(response)
    clock.advance(0.5)
    for index in range(12):
        record(facade.handle_read("posts", f"p{index:02d}"))
    record(facade.handle_query(Query("posts", {"category": 1})))

    return {
        "responses": responses,
        "cluster_counters": cluster.counters.as_dict(),
        "group_counters": [group.counters.as_dict() for group in cluster.groups],
        "statistics": cluster.statistics(),
    }


def run_cells() -> dict:
    return {
        f"rf{replication_factor}-{'crashed' if crashed else 'alive'}": run_cell(
            replication_factor, crashed
        )
        for replication_factor, crashed in CELLS
    }


@pytest.mark.parametrize("replication_factor, crash_primary", CELLS)
def test_the_one_path_reproduces_the_pinned_responses_and_counters(
    replication_factor, crash_primary
):
    name = f"rf{replication_factor}-{'crashed' if crash_primary else 'alive'}"
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    observed = json.loads(json.dumps(run_cell(replication_factor, crash_primary)))
    for part in ("cluster_counters", "group_counters", "statistics"):
        assert observed[part] == golden[part], part
    assert len(observed["responses"]) == len(golden["responses"])
    for index, (seen, pinned) in enumerate(zip(observed["responses"], golden["responses"])):
        assert seen == pinned, f"response {index}"


def test_the_cells_exercise_failures_as_well_as_successes():
    """Vacuity check: the crashed cells answer some requests with a 503, serve
    some reads from replicas, and the healthy cells answer none with a 503."""
    golden = json.loads(GOLDEN_PATH.read_text())
    for name, cell in golden.items():
        unavailable = sum(status == 503 for status, _digest in cell["responses"])
        assert (unavailable > 0) == name.endswith("crashed"), name
    read_errors = {
        name: cell["cluster_counters"].get("read_errors", 0) for name, cell in golden.items()
    }
    assert 0 < read_errors["rf3-crashed"] < read_errors["rf1-crashed"]
    healthy_groups = golden["rf3-alive"]["group_counters"]
    assert all(counters.get("replica_reads", 0) for counters in healthy_groups)
