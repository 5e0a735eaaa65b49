"""Dotted-path resolution with MongoDB's fan-out over arrays.

``resolve_values`` returns every value a split dotted path reaches (none:
the path is missing); a numeric segment indexes an array when it is in
range and otherwise fans out like a field name.  ``with_array_elements``
adds each array's elements beside the array itself, the "contains" reading
of equality and comparisons.
"""

from __future__ import annotations

import pytest

from repro.db.documents import split_path
from repro.db.predicates import resolve_values, with_array_elements

DOCUMENT = {
    "_id": "p1",
    "title": "Hello",
    "author": {"name": "ada", "tags": ["x", "y"]},
    "comments": [
        {"by": "bob", "votes": 3},
        {"by": "cy"},
        "plain",
        [{"by": "nested"}],
    ],
    "matrix": [[1, 2], [3]],
    "nothing": None,
}


@pytest.mark.parametrize(
    "path, values",
    [
        ("title", ["Hello"]),
        ("author.name", ["ada"]),
        ("author.tags", [["x", "y"]]),
        ("author.tags.1", ["y"]),
        ("author.tags.5", []),
        ("comments.by", ["bob", "cy", "nested"]),
        ("comments.votes", [3]),
        ("comments.0.by", ["bob"]),
        ("matrix.1", [[3]]),
        ("nothing", [None]),
        ("nothing.deeper", []),
        ("title.length", []),
        ("missing", []),
        ("author.missing", []),
    ],
)
def test_a_path_resolves_to_every_value_it_reaches(path, values):
    assert resolve_values(DOCUMENT, split_path(path)) == values


def test_no_segments_resolve_to_the_node_itself():
    assert resolve_values(DOCUMENT, ()) == [DOCUMENT]


@pytest.mark.parametrize(
    "values, expanded",
    [
        ([], []),
        ([1, "a"], [1, "a"]),
        ([[1, 2]], [[1, 2], 1, 2]),
        ([[], 3], [[], 3]),
        ([[[1]]], [[[1]], [1]]),
    ],
)
def test_arrays_contribute_themselves_and_their_elements(values, expanded):
    assert with_array_elements(values) == expanded
