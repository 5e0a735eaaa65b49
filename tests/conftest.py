"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.caching import InvalidationCache
from repro.clock import VirtualClock
from repro.client import QuaestorClient
from repro.core import QuaestorConfig, QuaestorServer
from repro.db import Database, Query
from repro.db.collection import Collection
from repro.invalidb import InvaliDBCluster


@pytest.fixture(scope="session")
def reference():
    """The pre-compiler predicate interpreter, frozen as the differential oracle."""
    path = Path(__file__).parent / "db" / "reference_predicates.py"
    spec = importlib.util.spec_from_file_location("reference_predicates", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fingerprint(document) -> str:
    """Canonical JSON of a document: equal exactly when the content is."""
    return json.dumps(document, sort_keys=True, default=repr)


class SnapshotGuard:
    """Pins the ownership contract: an installed document version never changes.

    Stored snapshots are shared by reference from the collection to change
    events, caches, replicas and sessions, so an in-place edit anywhere would
    corrupt all of them silently.  The guard fingerprints every snapshot on
    its way through the ``Collection`` install seams and re-fingerprints them
    all when the test ends.  A bulk install (pre-load, replica seeding) is
    fingerprinted as one batch: a dataset of 10^5 documents costs one JSON
    encoding, and only a batch that changed is taken apart to name its
    victims.
    """

    def __init__(self) -> None:
        # id(snapshot) -> (snapshot, fingerprint, label); holding the snapshot
        # keeps its id from being reused.  Replicas adopt the primary's
        # object, so one entry covers every node.
        self._installed: Dict[int, Tuple[dict, str, str]] = {}
        # (snapshots, fingerprint of the list, collection, document ids,
        # versions) per bulk install, and the ids of every snapshot a batch holds.
        self._batches: List[Tuple[List[dict], str, str, List[str], Dict[str, int]]] = []
        self._batched: set = set()

    def _seen(self, snapshot) -> bool:
        return id(snapshot) in self._installed or id(snapshot) in self._batched

    def wrap(self, install):
        installed = self._installed

        def guarded_install(collection, document_id, snapshot, version):
            if snapshot is not None and not self._seen(snapshot):
                label = f"{collection.name}/{document_id} v{version}"
                installed[id(snapshot)] = (snapshot, fingerprint(snapshot), label)
            return install(collection, document_id, snapshot, version)

        return guarded_install

    def wrap_bulk(self, install_all):
        def guarded_install_all(collection, snapshots, versions, *filed):
            fresh = [
                (document_id, snapshot)
                for document_id, snapshot in snapshots.items()
                if not self._seen(snapshot)
            ]
            if fresh:
                ids = [document_id for document_id, _ in fresh]
                batch = [snapshot for _, snapshot in fresh]
                self._batched.update(map(id, batch))
                self._batches.append((batch, fingerprint(batch), collection.name, ids, versions))
            return install_all(collection, snapshots, versions, *filed)

        return guarded_install_all

    def drifted(self) -> List[str]:
        """One line per installed snapshot whose content changed since."""
        lines = [
            f"{label}: installed as {before}, now {fingerprint(snapshot)}"
            for snapshot, before, label in self._installed.values()
            if fingerprint(snapshot) != before
        ]
        for batch, before, name, ids, versions in self._batches:
            if fingerprint(batch) != before:
                for snapshot, old, document_id in zip(batch, json.loads(before), ids):
                    if fingerprint(snapshot) != fingerprint(old):
                        lines.append(
                            f"{name}/{document_id} v{versions[document_id]}: installed as "
                            f"{fingerprint(old)}, now {fingerprint(snapshot)}"
                        )
        return lines

    def check(self) -> None:
        drifted = self.drifted()
        if drifted:
            pytest.fail(
                "a shared document snapshot was mutated in place (deep_copy before editing):\n"
                + "\n".join(drifted)
            )


@pytest.fixture(autouse=True)
def snapshot_guard(monkeypatch) -> SnapshotGuard:
    """Fail any test during which a stored document version was mutated."""
    guard = SnapshotGuard()
    monkeypatch.setattr(Collection, "_install", guard.wrap(Collection._install))
    monkeypatch.setattr(Collection, "_install_all", guard.wrap_bulk(Collection._install_all))
    yield guard
    guard.check()


@pytest.fixture
def clock() -> VirtualClock:
    """A fresh virtual clock starting at zero."""
    return VirtualClock()


@pytest.fixture
def database(clock: VirtualClock) -> Database:
    """An empty document database bound to the virtual clock."""
    return Database(clock=clock)


@pytest.fixture
def posts(database: Database):
    """A ``posts`` collection pre-populated with tagged blog posts.

    Even-numbered posts carry the ``example`` tag (the paper's running
    example); odd-numbered posts carry ``other``.
    """
    collection = database.create_collection("posts")
    collection.create_index("tags")
    for index in range(20):
        collection.insert(
            {
                "_id": f"p{index}",
                "title": f"Post {index}",
                "tags": ["example"] if index % 2 == 0 else ["other"],
                "views": index,
                "author": {"name": f"user{index % 3}", "karma": index * 10},
            }
        )
    return collection


@pytest.fixture
def example_query() -> Query:
    """The paper's running example query: posts tagged 'example'."""
    return Query("posts", {"tags": "example"})


@pytest.fixture
def deployment(clock: VirtualClock, database: Database, posts):
    """A full single-node deployment: server, CDN and one connected client."""
    server = QuaestorServer(
        database, config=QuaestorConfig(), invalidb=InvaliDBCluster(matching_nodes=4)
    )
    cdn = InvalidationCache("cdn", clock)
    server.register_purge_target(cdn)
    client = QuaestorClient(server, cdn=cdn, clock=clock, refresh_interval=10.0)
    client.connect()
    return {"clock": clock, "database": database, "server": server, "cdn": cdn, "client": client}
