"""The result-tag memo answers exactly what rendering the tag would.

A server's read pipeline and the cluster's gather merge reuse a query's last
result tag while its ``{id: version}`` map is unchanged
(:class:`~repro.core.representation.ResultTagMemo`).  This property drives one
long-lived memo with the version maps a real collection produces for a few
queries while generated writes add members, remove them, re-version them and
revert a result to an earlier membership (ABA), and requires every memoised
tag to equal :func:`~repro.rest.etags.etag_for_result` of the map, with the
memo never above its bound.  A memo keyed by the cache key alone answers a
changed result with the old tag, and fails here.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core import representation
from repro.core.representation import ResultTagMemo
from repro.db import Database, Query
from repro.rest.etags import etag_for_result

QUERIES = (
    Query("posts", {"category": 0}),
    Query("posts", {"category": 1}),
    Query("posts", {}, sort=(("views", -1),), limit=3),
    Query("posts", {"category": 0}, sort=(("views", 1),), offset=1),
)
IDS = tuple(f"p{number}" for number in range(6))

steps = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(IDS), st.integers(0, 1)),
    st.tuples(st.just("move"), st.sampled_from(IDS), st.integers(0, 1)),
    st.tuples(st.just("touch"), st.sampled_from(IDS), st.integers(0, 9)),
    st.tuples(st.just("delete"), st.sampled_from(IDS), st.just(0)),
    st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1), st.just(0)),
)


def _replay(steps, bound: int) -> None:
    posts = Database().create_collection("posts")
    posts.create_index("category")
    memo = ResultTagMemo()
    for kind, target, value in steps:
        if kind == "query":
            query = QUERIES[target]
            versions = posts.find_versioned(query)[1]
            assert memo.tag(query.cache_key, versions) == etag_for_result(versions), versions
            assert len(memo) <= bound
        elif kind == "insert":
            if target not in posts:
                posts.insert({"_id": target, "category": value, "views": 0})
        elif target in posts:
            if kind == "move":  # membership changes (and back: ABA)
                posts.update(target, {"$set": {"category": value}})
            elif kind == "touch":  # same members, a new version
                posts.update(target, {"$set": {"views": value}})
            else:
                posts.delete(target)


@given(st.lists(steps, min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_the_memoised_tag_is_the_rendered_tag(steps):
    _replay(steps, representation.RESULT_TAG_MEMO_SIZE)


@given(st.lists(steps, min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_a_full_memo_starts_over_without_changing_a_tag(steps):
    with mock.patch.object(representation, "RESULT_TAG_MEMO_SIZE", 2):
        _replay(steps + [("query", index, 0) for index in range(len(QUERIES))], 2)


def test_an_unchanged_result_reuses_its_tag():
    """The memo is consulted: an equal map returns the very string it rendered."""
    memo = ResultTagMemo()
    first = memo.tag("q", {"a": 1, "b": 2})
    assert memo.tag("q", {"b": 2, "a": 1}) is first
    assert memo.tag("q", {"a": 1, "b": 3}) == etag_for_result({"a": 1, "b": 3}) != first
