"""Property: a bulk bootstrap installs exactly what one install per document would.

A deployment is built through one seam, ``Collection._install_all``: the
dataset pre-load (:meth:`Collection.preload`) and every replica resync
(:meth:`Collection.seed_from`).  Both must leave the very state that the
per-document paths they replace leave -- ``insert`` of each document, and
``create_index`` + ``install_snapshot`` in id order + ``restore_version_floors``
-- down to the index buckets, the per-key stamps that guard the result memo,
the install counters, the version floors and the change stream's sequence.
The change stream keeps no events for a bulk install, so its answers are
compared at every position a caller can hold: the end of the bootstrap and
after.

Both paths file a document under the keys ``HashIndex._keys`` gives, which
answers a top-level number or string itself; so the buckets filed by
``file_all`` (bulk) and by ``reindex`` (one write) are also checked against
the generic key resolution -- ``resolve_values``, ``with_array_elements``,
``order_key`` -- with the indexed values ranging over ``True``, ``1``,
``1.0``, ``None``, a missing value, lists and sub-documents, on a top-level
field and on a dotted path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database
from repro.db.collection import Collection
from repro.db.documents import order_key, split_path
from repro.db.predicates import resolve_values, with_array_elements
from repro.errors import DuplicateKeyError
from repro.simulation import SimulationConfig, Simulator
from repro.workloads.dataset import DatasetSpec, generate_dataset
from repro.workloads.generator import WorkloadSpec

INDEXED = ("category", "tags", "author.name")
IDS = st.sampled_from([f"d{number}" for number in range(8)])
#: ``True`` is no number to an index (it files apart from ``1``); ``1.0`` is ``1``.
SCALARS = st.one_of(
    st.none(), st.integers(-2, 2), st.sampled_from(["x", "y", True, False, 1.0, 2.5])
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3), st.fixed_dictionaries({"k": SCALARS}))
BODIES = st.fixed_dictionaries(
    {},
    optional={
        "category": VALUES,
        "tags": st.lists(SCALARS, max_size=3),
        "author": st.fixed_dictionaries({}, optional={"name": VALUES}),
    },
)
DOCUMENTS = st.builds(lambda document_id, body: {"_id": document_id, **body}, IDS, BODIES)
#: What a collection went through before its bootstrap: inserts, deletes and
#: restored floors (so a pre-loaded id may continue past a tombstone).
HISTORY = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), DOCUMENTS),
        st.tuples(st.just("delete"), IDS),
        st.tuples(st.just("floor"), IDS, st.integers(0, 6)),
    ),
    max_size=8,
)
#: Writes after the bootstrap, so the change stream has events to answer with.
LATER = st.lists(st.tuples(IDS, BODIES), max_size=5)


def _retaining() -> Database:
    """A database whose stream keeps its history, so ``_answers`` compares
    replays (a plain database keeps none)."""
    database = Database()
    database.change_stream.retain_history()
    return database


def _collection(database: Database) -> Collection:
    collection = database.create_collection("posts")
    for field in INDEXED:
        collection.create_index(field)
    return collection


def _replay(collection: Collection, history) -> None:
    for step in history:
        if step[0] == "insert" and step[1]["_id"] not in collection:
            collection.insert(step[1])
        elif step[0] == "delete" and step[1] in collection:
            collection.delete(step[1])
        elif step[0] == "floor":
            collection.restore_version_floors({step[1]: step[2]})


def _write(collection: Collection, writes) -> None:
    for document_id, body in writes:
        if document_id in collection:
            collection.update(document_id, body)
        else:
            collection.insert({"_id": document_id, **body})


def _state(database: Database) -> dict:
    """Everything an install touches, per collection, plus the stream's position."""
    state = {"sequence": database.change_stream.last_sequence}
    for name in database.collection_names():
        collection = database.collection(name)
        state[name] = {
            "documents": list(collection._documents.items()),
            "versions": collection._versions,
            "floors": collection._deleted_versions,
            "version_floors": collection.version_floors(),
            "writes": collection.writes,
            "indexes": {
                field: (index._entries, index.stamps, index._filed, index._installs)
                for field, index in collection._indexes._indexes.items()
            },
        }
    return state


def _assert_generic_keys(database: Database) -> None:
    """Every index holds each live document under exactly the keys the
    generic resolution gives (a missing path: ``None``'s key)."""
    for name in database.collection_names():
        collection = database.collection(name)
        for field, index in collection._indexes._indexes.items():
            buckets: dict = {}
            for document_id, document in collection._documents.items():
                values = with_array_elements(resolve_values(document, split_path(field)))
                keys = set(map(order_key, values)) if values else {order_key(None)}
                assert set(index._filed[document_id]) == keys, (field, document)
                for key in keys:
                    buckets.setdefault(key, set()).add(document_id)
            assert index._entries == buckets, field


def _answers(database: Database, since: int) -> list:
    """``covers_since`` / ``replay_since`` at every position from ``since`` on."""
    stream = database.change_stream
    return [
        (
            position,
            stream.covers_since(position),
            [
                (event.sequence, event.operation, event.document_id, event.before, event.after,
                 event.version)
                for event in stream.replay_since(position)
            ],
        )
        for position in range(since, stream.last_sequence + 2)
    ]


def _seed_one_by_one(target: Database, source: Database) -> None:
    """The per-document resync the seam replaced: the reference."""
    for name in source.collection_names():
        original = source.collection(name)
        copy = target.create_collection(name)
        for field in original.indexed_fields():
            copy.create_index(field)
        for document_id in original.ids():
            copy.install_snapshot(document_id, *original.get_versioned(document_id))
        copy.restore_version_floors(original.version_floors())


@settings(max_examples=300, deadline=None)
@given(history=HISTORY, batch=st.lists(DOCUMENTS, max_size=8), later=LATER)
def test_preload_equals_one_insert_per_document(history, batch, later):
    bulk, reference = _retaining(), _retaining()
    for database in (bulk, reference):
        _replay(_collection(database), history)
    before = _state(bulk)
    try:
        for document in batch:
            reference.collection("posts").insert(document)
    except DuplicateKeyError:
        # All or nothing: the batch is refused before anything is installed.
        with pytest.raises(DuplicateKeyError):
            bulk.collection("posts").preload(batch)
        assert _state(bulk) == before
        return
    bulk.collection("posts").preload(batch)
    assert _state(bulk) == _state(reference)
    _assert_generic_keys(bulk)
    loaded = bulk.change_stream.last_sequence
    for database in (bulk, reference):
        _write(database.collection("posts"), later)
    assert _state(bulk) == _state(reference)
    _assert_generic_keys(bulk)
    assert _answers(bulk, loaded) == _answers(reference, loaded)


@settings(max_examples=300, deadline=None)
@given(history=HISTORY, batch=st.lists(DOCUMENTS, max_size=8, unique_by=lambda d: d["_id"]),
       churn=HISTORY, later=LATER)
def test_seed_from_equals_one_install_per_document(history, batch, churn, later):
    source = Database()
    collection = _collection(source)
    _replay(collection, history)
    collection.preload([document for document in batch if document["_id"] not in collection])
    _replay(collection, churn)
    source.create_collection("empty").create_index("category")

    bulk, reference = _retaining(), _retaining()
    for name in source.collection_names():
        bulk.create_collection(name).seed_from(source.collection(name))
    _seed_one_by_one(reference, source)
    assert _state(bulk) == _state(reference)
    copied = bulk.collection("posts")
    for document_id, document in source.collection("posts")._documents.items():
        assert copied.get(document_id) is document  # adopted, not copied
    seeded = bulk.change_stream.last_sequence
    for database in (bulk, reference):
        _write(database.collection("posts"), later)
    assert _state(bulk) == _state(reference)
    assert _answers(bulk, seeded) == _answers(reference, seeded)


def test_preload_adopts_the_documents_it_is_given():
    database = Database()
    documents = [{"_id": "a", "category": 1}, {"_id": "b", "category": 2}]
    _collection(database).preload(documents)
    assert database.get("posts", "a") is documents[0]
    assert database.get("posts", "b") is documents[1]


def test_simulators_sharing_a_dataset_match_simulators_with_their_own():
    """Pre-load adopts a dataset's documents by reference, so one dataset can
    back several deployments at once -- single server and replicated fleet --
    without one run leaking into the other."""
    spec = DatasetSpec(num_tables=2, documents_per_table=60, queries_per_table=6, average_result_size=3)
    configs = [
        SimulationConfig(
            dataset=spec, workload=WorkloadSpec(update_proportion=0.3, insert_proportion=0.1,
                                                read_proportion=0.3, query_proportion=0.3, seed=5),
            max_operations=300, num_clients=2, seed=seed, **deployment,
        )
        for seed, deployment in ((1, {}), (2, {"num_shards": 2, "replication_factor": 2}))
    ]
    shared = generate_dataset(spec)
    together = [Simulator(config, dataset=shared) for config in configs]
    together_summaries = [simulator.run().summary() for simulator in together]
    apart = [Simulator(config, dataset=generate_dataset(spec)).run().summary() for config in configs]
    assert together_summaries == apart
