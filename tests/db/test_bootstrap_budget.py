"""Machine-independent cost guard for building a deployment.

Set-up installs every document of a dataset once per database -- the
pre-load -- and once more per replica -- the snapshot resync.  Both go
through one bulk seam, so the cost of a document is what filing it in the
indexes takes, not a trip through the runtime write path.  This test counts
``cProfile`` calls (Python and C, as the benchmark's ``calls_per_op`` does)
around a pre-load and a resync of ``n`` and ``2 n`` dataset-shaped
documents; the difference per document is pinned exactly.

Through the write path a document cost 36 calls to pre-load (an ingress
copy, a change event nobody heard, one ``reindex``) and 28 to seed into a
replica (``get_versioned``, ``install_snapshot``, the same event and
``reindex``, and its floor's restore).  Pre-loaded, it costs the index's key
resolution alone; seeded, it costs nothing per document -- the replica adopts
the source's documents, versions and index buckets wholesale.

Pre-loading went 10 -> 3 calls a document when the index answered a
top-level number or string in ``HashIndex._keys`` itself (the ``_keys``
call, the bucket lookup and the bucket ``add``), where it had resolved it
through ``resolve_values``, ``with_array_elements`` and ``order_key``.

The same count pins the two other per-document costs of a build, at one
table of ``n`` and ``2 n`` generated posts:

* generating a post went 22.46 -> 8.53 calls: its bounded draws are
  ``getrandbits`` calls in the loop (about 8.5 a post, rejections
  included), where each was a ``random._randbelow`` frame with its own
  ``bit_length`` and ``getrandbits`` calls;
* building the workload generator went 1.0 -> 0 calls a target: the
  targets are two flat lists, and the Zipf normaliser sums a list, where a
  generator expression resumed once per item.
"""

from __future__ import annotations

import cProfile
import gc
import pstats

import pytest

from repro.clock import VirtualClock
from repro.db import Database
from repro.replication.replica import ReplicaNode
from repro.workloads.dataset import INDEXED_QUERY_FIELD, DatasetSpec, generate_dataset
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

CALLS_PER_PRELOADED_DOCUMENT = 3
CALLS_PER_SEEDED_DOCUMENT = 0
CALLS_PER_GENERATED_DOCUMENT = 8.53
CALLS_PER_WORKLOAD_TARGET = 0


@pytest.fixture(autouse=True)
def snapshot_guard():
    """Replaces the suite's guard: its wrapper around the bulk seam fingerprints
    every document, which is not the seam's cost."""
    yield


def _calls(function) -> int:
    """cProfile's call count of ``function()``, with the cyclic collector off:
    a collection runs whatever ``gc.callbacks`` hold, which is not the path."""
    profile = cProfile.Profile()
    gc.disable()
    try:
        profile.enable()
        function()
        profile.disable()
    finally:
        gc.enable()
    return pstats.Stats(profile).total_calls


def _documents(count: int) -> list:
    """Generated-dataset shape: a category shared by a tenth of them, tags, scalars."""
    return [
        {"_id": f"d{number:05d}", "category": number % 10, "tags": ["a", "b"], "views": number}
        for number in range(count)
    ]


def _preloaded(count: int):
    """(calls of the pre-load, the loaded database)."""
    database = Database()
    posts = database.create_collection("posts")
    posts.create_index(INDEXED_QUERY_FIELD)
    documents = _documents(count)
    return _calls(lambda: posts.preload(documents)), database


def _seed_calls(count: int) -> int:
    _, source = _preloaded(count)
    node = ReplicaNode("replica", VirtualClock(), Database())
    return _calls(lambda: node.seed_from(source))


def test_a_preloaded_document_costs_its_index_keys_only():
    per_document = (_preloaded(400)[0] - _preloaded(200)[0]) / 200
    assert per_document == CALLS_PER_PRELOADED_DOCUMENT


def test_a_seeded_replica_document_costs_no_call():
    per_document = (_seed_calls(400) - _seed_calls(200)) / 200
    assert per_document == CALLS_PER_SEEDED_DOCUMENT


def _one_table(count: int) -> DatasetSpec:
    return DatasetSpec(num_tables=1, documents_per_table=count, queries_per_table=10)


def test_a_generated_document_costs_its_draws_only():
    def calls(count: int) -> int:
        return _calls(lambda: generate_dataset(_one_table(count)))

    assert (calls(400) - calls(200)) / 200 == CALLS_PER_GENERATED_DOCUMENT


def test_a_workload_target_costs_no_call():
    def calls(count: int) -> int:
        dataset = generate_dataset(_one_table(count))
        return _calls(lambda: WorkloadGenerator(WorkloadSpec(), dataset))

    assert (calls(400) - calls(200)) / 200 == CALLS_PER_WORKLOAD_TARGET


def test_a_bootstrap_publishes_no_event_and_keeps_the_sequence():
    _, source = _preloaded(50)
    node = ReplicaNode("replica", VirtualClock(), Database())
    node.seed_from(source)
    for database in (source, node.database):
        assert database.change_stream.last_sequence == 50
        assert len(database.change_stream) == 0
