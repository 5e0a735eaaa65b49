"""Tests for secondary indexes."""

from __future__ import annotations

import pytest

from repro.db.documents import order_key
from repro.db.indexes import HashIndex, IndexSet
from repro.db.query import Query


def probes(criteria):
    """What a collection hands its index set: the query plan's index probes."""
    return Query("posts", criteria).plan.index_probes


class TestHashIndex:
    def test_add_and_lookup(self):
        index = HashIndex("category")
        index.reindex("d1", None, {"category": "tech"})
        index.reindex("d2", None, {"category": "tech"})
        index.reindex("d3", None, {"category": "life"})
        assert index.bucket(order_key("tech")) == {"d1", "d2"}
        assert index.bucket(order_key("life")) == {"d3"}
        assert index.bucket(order_key("missing")) == set()

    def test_multikey_indexing_of_arrays(self):
        index = HashIndex("tags")
        index.reindex("d1", None, {"tags": ["a", "b"]})
        assert index.bucket(order_key("a")) == {"d1"}
        assert index.bucket(order_key("b")) == {"d1"}
        assert index.bucket(order_key(["a", "b"])) == {"d1"}

    def test_remove(self):
        index = HashIndex("category")
        index.reindex("d1", None, {"category": "tech"})
        index.reindex("d1", {"category": "tech"}, None)
        assert index.bucket(order_key("tech")) == set()
        assert len(index) == 0

    def test_update_moves_entry(self):
        index = HashIndex("category")
        index.reindex("d1", None, {"category": "tech"})
        index.reindex("d1", {"category": "tech"}, {"category": "life"})
        assert index.bucket(order_key("tech")) == set()
        assert index.bucket(order_key("life")) == {"d1"}

    def test_nested_field_indexing(self):
        index = HashIndex("author.name")
        index.reindex("d1", None, {"author": {"name": "alice"}})
        assert index.bucket(order_key("alice")) == {"d1"}

    def test_requires_field_name(self):
        with pytest.raises(ValueError):
            HashIndex("")


class TestIndexSet:
    def test_create_is_idempotent(self):
        indexes = IndexSet()
        first = indexes.create("category")
        second = indexes.create("category")
        assert first is second
        assert indexes.fields() == ["category"]

    def test_candidate_ids_for_equality(self):
        indexes = IndexSet()
        indexes.create("category")
        indexes.reindex("d1", None, {"category": "a", "views": 1})
        indexes.reindex("d2", None, {"category": "b", "views": 2})
        assert indexes.candidate_ids(probes({"category": "a"})) == ({"d1"}, True)
        assert indexes.candidate_ids(probes({"category": {"$eq": "b"}})) == ({"d2"}, True)

    def test_candidate_ids_none_when_not_indexed(self):
        indexes = IndexSet()
        indexes.create("category")
        assert indexes.candidate_ids(probes({"views": 3})) == (None, False)
        assert indexes.candidate_ids(probes({"category": {"$gt": 1}})) == (None, True)  # no probe

    def test_candidate_ids_report_an_unindexed_probe(self):
        indexes = IndexSet()
        indexes.create("category")
        indexes.reindex("d1", None, {"category": "a", "views": 1})
        assert indexes.candidate_ids(probes({"category": "a", "views": 3})) == ({"d1"}, False)

    def test_candidate_ids_intersects_multiple_indexes(self):
        indexes = IndexSet()
        indexes.create("category")
        indexes.create("author")
        indexes.reindex("d1", None, {"category": "a", "author": "x"})
        indexes.reindex("d2", None, {"category": "a", "author": "y"})
        assert indexes.candidate_ids(probes({"category": "a", "author": "y"})) == ({"d2"}, True)

    def test_document_lifecycle(self):
        indexes = IndexSet()
        indexes.create("category")
        indexes.reindex("d1", None, {"category": "a"})
        indexes.reindex("d1", {"category": "a"}, {"category": "b"})
        assert indexes.candidate_ids(probes({"category": "b"})) == ({"d1"}, True)
        indexes.reindex("d1", {"category": "b"}, None)
        assert indexes.candidate_ids(probes({"category": "b"})) == (set(), True)
