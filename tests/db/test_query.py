"""Tests for query normalisation, validation and cache keys."""

from __future__ import annotations

import pytest

from repro.db.query import Query, record_key
from repro.errors import InvalidQueryError, UnsupportedOperationError


class TestConstruction:
    def test_requires_collection(self):
        with pytest.raises(InvalidQueryError):
            Query("", {"a": 1})

    def test_rejects_bad_limit_offset(self):
        with pytest.raises(InvalidQueryError):
            Query("posts", limit=0)
        with pytest.raises(InvalidQueryError):
            Query("posts", offset=-1)

    def test_rejects_bad_sort(self):
        with pytest.raises(InvalidQueryError):
            Query("posts", sort=[("views", 2)])
        with pytest.raises(InvalidQueryError):
            Query("posts", sort=[("", 1)])

    def test_queries_are_immutable(self):
        query = Query("posts", {"a": 1})
        with pytest.raises(AttributeError):
            query.collection = "other"

    def test_unknown_operator_rejected(self):
        with pytest.raises(InvalidQueryError):
            Query("posts", {"views": {"$nearSphere": [0, 0]}})

    def test_joins_and_aggregations_rejected(self):
        """InvaliDB does not support joins/aggregations (paper Section 4.1)."""
        with pytest.raises(UnsupportedOperationError):
            Query("posts", {"$lookup": {"from": "users"}})
        with pytest.raises(UnsupportedOperationError):
            Query("posts", {"$group": {"_id": "$author"}})


class TestNormalisation:
    def test_equivalent_filters_share_cache_key(self):
        first = Query("posts", {"views": {"$gt": 1}, "tags": "example"})
        second = Query("posts", {"tags": "example", "views": {"$gt": 1}})
        assert first.cache_key == second.cache_key
        assert first == second
        assert hash(first) == hash(second)

    def test_different_filters_have_different_keys(self):
        assert Query("posts", {"a": 1}).cache_key != Query("posts", {"a": 2}).cache_key

    def test_collection_is_part_of_key(self):
        assert Query("posts", {"a": 1}).cache_key != Query("users", {"a": 1}).cache_key

    def test_windowing_is_part_of_key(self):
        base = Query("posts", {"a": 1})
        limited = Query("posts", {"a": 1}, limit=10)
        offset = Query("posts", {"a": 1}, limit=10, offset=5)
        assert len({base.cache_key, limited.cache_key, offset.cache_key}) == 3

    def test_sort_direction_is_part_of_key(self):
        ascending = Query("posts", {}, sort=[("views", 1)])
        descending = Query("posts", {}, sort=[("views", -1)])
        assert ascending.cache_key != descending.cache_key

    def test_record_key_format(self):
        assert record_key("posts", "p1") == "record:posts/p1"


class TestStatefulness:
    def test_plain_query_is_stateless(self):
        assert not Query("posts", {"a": 1}).is_stateful

    def test_sorted_query_is_stateful(self):
        assert Query("posts", {}, sort=[("views", -1)]).is_stateful

    def test_limit_or_offset_makes_stateful(self):
        assert Query("posts", {}, limit=10).is_stateful
        assert Query("posts", {}, offset=5).is_stateful


class TestMatching:
    def test_matches_delegates_to_predicates(self):
        query = Query("posts", {"tags": "example", "views": {"$gte": 10}})
        assert query.plan.matches({"tags": ["example"], "views": 15})
        assert not query.plan.matches({"tags": ["example"], "views": 5})

    def test_matches_ignores_windowing(self):
        query = Query("posts", {"views": {"$gt": 0}}, limit=1)
        assert query.plan.matches({"views": 5})
