"""Property: a document version, once handed out, never changes.

Stored snapshots are shared by reference (collection -> change events ->
caches -> replicas -> sessions), so the safety of the whole stack rests on
two facts this test drives with random write sequences: every write builds
its new version on a fresh copy (nothing handed out earlier is touched), and
caller-owned input is copied on the way in (editing it afterwards reaches
nothing stored).
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.db import Database, Query
from repro.errors import QuaestorError

IDS = st.sampled_from(["a", "b", "c"])
WORDS = st.sampled_from(["x", "y", "z"])
NUMBERS = st.integers(min_value=-3, max_value=3)
LEAVES = st.one_of(NUMBERS, WORDS, st.lists(WORDS, max_size=3), st.fixed_dictionaries({"k": NUMBERS}))
PATHS = st.sampled_from(["n", "tags", "nested", "nested.k", "nested.items", "nested.items.0", "tags.1"])

BODIES = st.fixed_dictionaries(
    {},
    optional={
        "n": NUMBERS,
        "tags": st.lists(WORDS, max_size=3),
        "nested": st.fixed_dictionaries({"k": NUMBERS, "items": st.lists(LEAVES, max_size=2)}),
    },
)

OPERATORS = st.one_of(
    st.builds(lambda path, value: {"$set": {path: value}}, PATHS, LEAVES),
    st.builds(lambda path: {"$unset": {path: ""}}, PATHS),
    st.builds(lambda path, by: {"$inc": {path: by}}, PATHS, NUMBERS),
    st.builds(lambda path, by: {"$mul": {path: by}}, PATHS, NUMBERS),
    st.builds(lambda path, value: {"$min": {path: value}}, PATHS, LEAVES),
    st.builds(lambda path, value: {"$max": {path: value}}, PATHS, LEAVES),
    st.builds(lambda path, value: {"$push": {path: value}}, PATHS, LEAVES),
    st.builds(lambda path, values: {"$push": {path: {"$each": values}}}, PATHS, st.lists(LEAVES, max_size=2)),
    st.builds(lambda path, value: {"$addToSet": {path: value}}, PATHS, LEAVES),
    st.builds(lambda path, value: {"$pull": {path: value}}, PATHS, LEAVES),
    st.builds(lambda path, end: {"$pop": {path: end}}, PATHS, st.sampled_from([1, -1])),
    st.builds(lambda source, target: {"$rename": {source: target}}, PATHS, st.sampled_from(["moved", "nested.moved"])),
    st.builds(lambda path, value, by: {"$set": {path: value}, "$inc": {"n": by}}, PATHS, LEAVES, NUMBERS),
)

STEPS = st.one_of(
    st.tuples(st.just("insert"), IDS, BODIES),
    st.tuples(st.just("update"), IDS, OPERATORS),
    st.tuples(st.just("update"), IDS, OPERATORS),
    st.tuples(st.just("replace"), IDS, BODIES),
    st.tuples(st.just("delete"), IDS, st.none()),
)


def fingerprint(document) -> str:
    return json.dumps(document, sort_keys=True)


def scribble(value) -> None:
    """Edit every mutable container of a caller-owned argument in place."""
    if isinstance(value, dict):
        for item in value.values():
            scribble(item)
        value["scribbled"] = ["by the caller"]
    elif isinstance(value, list):
        for item in value:
            scribble(item)
        value.append("scribbled")


@given(st.lists(STEPS, max_size=25))
@settings(max_examples=150, deadline=None)
def test_every_snapshot_ever_handed_out_keeps_its_content(steps):
    database = Database()
    collection = database.create_collection("things")
    collection.create_index("tags")
    handed_out = []  # (snapshot, fingerprint at hand-out)

    def remember(*snapshots):
        handed_out.extend((s, fingerprint(s)) for s in snapshots if s is not None)

    database.subscribe(lambda event: remember(event.before, event.after))

    for action, document_id, argument in steps:
        try:
            if action == "insert":
                argument = {"_id": document_id, **argument}
                remember(collection.insert(argument))
            elif action == "update":
                remember(collection.update(document_id, argument))
            elif action == "replace":
                replacement = {key: value for key, value in argument.items() if key != "_id"}
                remember(collection.update(document_id, replacement))
            else:
                remember(collection.delete(document_id))
        except (QuaestorError, ValueError):
            pass  # duplicate/missing ids, type-mismatched operators: rejected writes
        # The argument was the caller's: editing it now must reach nothing stored.
        scribble(argument)
        remember(collection._documents.get(document_id))
        remember(*collection.find(Query("things", {})))
        remember(*collection.find(Query("things", {"tags": "x"})))

    for snapshot, at_hand_out in handed_out:
        assert fingerprint(snapshot) == at_hand_out
    assert "scribbled" not in fingerprint([snapshot for snapshot, _ in handed_out])
    # Reads return the stored object: the after-image of the id's newest event.
    newest = {event.document_id: event.after for event in database.change_stream.replay_since(0)}
    for document_id in collection.ids():
        assert collection.get(document_id) is newest[document_id]
