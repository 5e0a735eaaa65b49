"""Machine-independent memory guard for what a write leaves behind.

A write's state is multiplied by every record a deployment holds, so this
test pins, structurally, that the write path keeps only what a later read,
audit or failover consults:

* a change stream keeps a history only where a replica group can replay it
  (failover replays the deposed primary's stream); a single server's stream
  keeps none, nor does a shard without replicas;
* the Expiring Bloom Filter schedules only stale keys: reads with no
  invalidation leave its expiry heap empty;
* the write-rate sampler keeps a key written once in at most
  ``SAMPLER_BYTES_PER_KEY`` traced bytes (a list of one float and its map
  entry).  A ``deque(maxlen=50)`` per key took 768 bytes for the deque alone.

The counts are structural (entries, traced bytes of one container shape), so
they hold on any machine and Python 3.11 / 3.12.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import deque

from repro.simulation import CachingMode, SimulationConfig, Simulator
from repro.ttl.write_rate import WriteRateSampler
from repro.workloads.dataset import DatasetSpec
from repro.workloads.generator import WorkloadSpec

#: Traced bytes the sampler may keep per key written once (measured: ~110).
SAMPLER_BYTES_PER_KEY = 128
#: Distinct keys the sampler measurement writes.
SAMPLER_KEYS = 5000


def _simulator(workload: WorkloadSpec, **overrides) -> Simulator:
    config = SimulationConfig(
        mode=CachingMode.QUAESTOR,
        workload=workload,
        dataset=DatasetSpec(num_tables=2, documents_per_table=300, queries_per_table=10),
        num_clients=2,
        connections_per_client=4,
        max_operations=1500,
        duration=600,
        **overrides,
    )
    return Simulator(config)


WRITE_HEAVY = WorkloadSpec(read_proportion=0.35, query_proportion=0.35, update_proportion=0.3)
READ_ONLY = WorkloadSpec(read_proportion=0.5, query_proportion=0.5, update_proportion=0.0)


def test_a_single_server_stream_keeps_no_history():
    simulator = _simulator(WRITE_HEAVY)
    stream = simulator.database.change_stream
    loaded = stream.last_sequence
    simulator.run()
    assert stream.last_sequence - loaded > 300  # the run wrote
    assert len(stream) == 0 and stream.replay_since(loaded) == []


def test_a_shard_without_replicas_keeps_no_history():
    simulator = _simulator(WRITE_HEAVY, num_shards=2)
    streams = [group.database.change_stream for group in simulator.cluster.groups]
    loaded = [stream.last_sequence for stream in streams]
    simulator.run()
    for stream, before in zip(streams, loaded):
        assert stream.last_sequence > before and len(stream) == 0


def test_every_replica_group_stream_keeps_what_it_published():
    simulator = _simulator(WRITE_HEAVY, num_shards=2, replication_factor=2)
    nodes = [node for group in simulator.cluster.groups for node in group.nodes]
    loaded = {node.node_id: node.database.change_stream.last_sequence for node in nodes}
    simulator.run()
    for node in nodes:
        stream = node.database.change_stream
        published = stream.last_sequence - loaded[node.node_id]
        assert published > 0, node.node_id
        assert len(stream) == published and stream.covers_since(loaded[node.node_id])


def test_reads_without_invalidations_leave_the_ebf_heap_empty():
    simulator = _simulator(READ_ONLY)
    simulator.run()
    ebf = simulator.server.ebf
    assert len(ebf._cacheable_until) > 100  # the run's reads were reported
    assert ebf._expiry_heap == [] and len(ebf) == 0
    # Vacuity: an invalidation of a key some cache still holds is scheduled.
    now = simulator.clock.now()
    key = next(key for key, deadline in ebf._cacheable_until.items() if deadline > now)
    assert ebf.report_invalidation(key) and len(ebf._expiry_heap) == 1


def _traced_bytes_per_key(record) -> float:
    keys = [f"record:posts/p{number}" for number in range(SAMPLER_KEYS)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = record(keys)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept
    return (after - before) / SAMPLER_KEYS


def test_a_key_written_once_costs_the_sampler_at_most_its_budget():
    def write_once(keys):
        sampler = WriteRateSampler()
        for number, key in enumerate(keys):
            sampler.observe_write(key, float(number))
        return sampler

    per_key = _traced_bytes_per_key(write_once)
    assert per_key <= SAMPLER_BYTES_PER_KEY, per_key

    # Vacuity: the per-key deque the list replaced is visible to the count.
    def deque_per_key(keys):
        samples = {}
        for number, key in enumerate(keys):
            samples[key] = deque((float(number),), maxlen=50)
        return samples

    assert _traced_bytes_per_key(deque_per_key) > 5 * SAMPLER_BYTES_PER_KEY
