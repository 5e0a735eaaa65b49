"""The mutation guard in ``conftest.py`` must not be vacuous.

Zero-copy documents are only safe if nothing edits a shared snapshot in
place; the autouse ``snapshot_guard`` fixture is what pins that for the whole
suite.  These tests commit the offence on purpose and check that the guard's
teardown check reports it, naming the victim.
"""

from __future__ import annotations

import pytest

from repro.db.documents import deep_copy


def test_mutating_a_find_result_in_place_is_reported(posts, example_query, snapshot_guard):
    snapshot_guard.check()  # clean so far
    victim = posts.find(example_query)[0]
    victim["views"] = -1
    with pytest.raises(pytest.fail.Exception, match=r"posts/p0 v1: installed as .*now .*-1"):
        snapshot_guard.check()
    victim["views"] = 0  # undo, so this test's own teardown passes
    snapshot_guard.check()


def test_nested_mutation_of_a_change_event_image_is_reported(database, posts, snapshot_guard):
    events = []
    database.subscribe(events.append)
    posts.update("p3", {"$set": {"views": 30}})
    after_image = events[-1].after
    after_image["author"]["karma"] += 1
    assert [line.split(":")[0] for line in snapshot_guard.drifted()] == ["posts/p3 v2"]
    after_image["author"]["karma"] -= 1


def test_editing_a_deep_copy_is_fine(posts, snapshot_guard):
    mine = deep_copy(posts.get("p1"))
    mine["tags"].append("edited")
    assert snapshot_guard.drifted() == []
    assert posts.get("p1")["tags"] == ["other"]


def test_mutating_a_preloaded_dataset_document_is_reported(snapshot_guard):
    """Pre-load adopts generated documents by reference, in one batch; an
    edit of one is named like any other installed snapshot."""
    from repro.db import Database
    from repro.workloads.dataset import DatasetSpec, generate_dataset

    dataset = generate_dataset(DatasetSpec(num_tables=1, documents_per_table=30))
    database = Database()
    dataset.load_into(database)
    victim = database.get("table_00", "table_00-doc-000017")
    assert victim is dataset.documents["table_00"][17]
    victim["tags"].append("edited")
    assert [line.split(":")[0] for line in snapshot_guard.drifted()] == [
        "table_00/table_00-doc-000017 v1"
    ]
    victim["tags"].pop()
    assert snapshot_guard.drifted() == []
