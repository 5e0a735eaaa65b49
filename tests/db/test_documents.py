"""Tests for document helpers: dotted paths, comparison and sorting."""

from __future__ import annotations

import pytest

from repro.db.documents import (
    bson_type,
    compare_values,
    compile_sort_key,
    deep_copy,
    get_path,
    has_path,
    set_path,
    split_path,
    unset_path,
)


class TestPaths:
    def test_split_path(self):
        assert split_path("a.b.c") == ("a", "b", "c")

    def test_split_path_rejects_malformed(self):
        # Twice each: the memo must not swallow the error on a repeat call.
        for _ in range(2):
            with pytest.raises(ValueError):
                split_path("")
            with pytest.raises(ValueError):
                split_path("a..b")
            with pytest.raises(ValueError):
                split_path("a.")

    def test_split_path_cached_value_cannot_be_mutated(self):
        segments = split_path("memo.ised.path")
        assert split_path("memo.ised.path") is segments  # served from the memo
        with pytest.raises(TypeError):
            segments[0] = "hijacked"
        with pytest.raises(AttributeError):
            segments.append("extra")
        # Path-walking helpers only slice the tuple; the memo stays intact.
        document = {}
        set_path(document, "memo.ised.path", 1)
        assert unset_path(document, "memo.ised.path") is True
        assert split_path("memo.ised.path") == ("memo", "ised", "path")

    def test_get_nested_field(self):
        document = {"author": {"name": "alice", "stats": {"karma": 7}}}
        assert get_path(document, "author.name") == "alice"
        assert get_path(document, "author.stats.karma") == 7

    def test_get_missing_returns_default(self):
        assert get_path({"a": 1}, "b") is None
        assert get_path({"a": 1}, "b.c", default=0) == 0

    def test_get_array_element(self):
        document = {"comments": [{"text": "first"}, {"text": "second"}]}
        assert get_path(document, "comments.1.text") == "second"
        assert get_path(document, "comments.5.text") is None

    def test_has_path(self):
        document = {"a": {"b": None}}
        assert has_path(document, "a.b")
        assert not has_path(document, "a.c")

    def test_set_creates_intermediate_documents(self):
        document = {}
        set_path(document, "a.b.c", 1)
        assert document == {"a": {"b": {"c": 1}}}

    def test_set_into_array(self):
        document = {"items": [1, 2]}
        set_path(document, "items.3", 9)
        assert document["items"] == [1, 2, None, 9]

    def test_unset_existing_field(self):
        document = {"a": {"b": 1, "c": 2}}
        assert unset_path(document, "a.b") is True
        assert document == {"a": {"c": 2}}

    def test_unset_missing_field(self):
        assert unset_path({"a": 1}, "b.c") is False

    def test_deep_copy_is_independent(self):
        original = {"nested": {"list": [1, 2]}}
        clone = deep_copy(original)
        clone["nested"]["list"].append(3)
        assert original["nested"]["list"] == [1, 2]


class TestComparison:
    def test_same_type_ordering(self):
        assert compare_values(1, 2) == -1
        assert compare_values("b", "a") == 1
        assert compare_values(3.5, 3.5) == 0

    def test_cross_type_ordering_is_total(self):
        # numbers < strings < documents < arrays < booleans (coarse classes)
        assert compare_values(5, "text") == -1
        assert compare_values("text", {"a": 1}) == -1
        assert compare_values({"a": 1}, [1]) == -1
        assert compare_values([1], True) == -1

    def test_null_ordering(self):
        assert compare_values(None, None) == 0
        assert compare_values(None, 0) == -1

    def test_array_lexicographic(self):
        assert compare_values([1, 2], [1, 3]) == -1
        assert compare_values([1, 2, 3], [1, 2]) == 1
        assert compare_values([1, 2], [1, 2]) == 0

    def test_document_comparison(self):
        assert compare_values({"a": 1}, {"a": 2}) == -1
        assert compare_values({"a": 1}, {"a": 1}) == 0

    def test_bson_type_classification(self):
        assert bson_type(None) == "null"
        assert bson_type(True) == "boolean"
        assert bson_type(1) == "number"
        assert bson_type(1.5) == "number"
        assert bson_type("x") == "string"
        assert bson_type({}) == "document"
        assert bson_type([]) == "array"


class TestSortKey:
    def test_ascending_sort(self):
        documents = [{"views": 3}, {"views": 1}, {"views": 2}]
        documents.sort(key=compile_sort_key([("views", 1)]))
        assert [doc["views"] for doc in documents] == [1, 2, 3]

    def test_descending_sort(self):
        documents = [{"views": 3}, {"views": 1}, {"views": 2}]
        documents.sort(key=compile_sort_key([("views", -1)]))
        assert [doc["views"] for doc in documents] == [3, 2, 1]

    def test_compound_sort(self):
        documents = [
            {"category": "a", "views": 2},
            {"category": "b", "views": 1},
            {"category": "a", "views": 1},
        ]
        documents.sort(key=compile_sort_key([("category", 1), ("views", -1)]))
        assert documents == [
            {"category": "a", "views": 2},
            {"category": "a", "views": 1},
            {"category": "b", "views": 1},
        ]

    def test_missing_field_sorts_first_ascending(self):
        documents = [{"views": 1}, {}]
        documents.sort(key=compile_sort_key([("views", 1)]))
        assert documents[0] == {}

    def test_ties_and_the_empty_spec_order_by_stringified_id(self):
        documents = [{"_id": 10, "views": 1}, {"_id": 9, "views": 1}, {"_id": "a", "views": 0}]
        documents.sort(key=compile_sort_key([("views", -1)]))
        assert [doc["_id"] for doc in documents] == [10, 9, "a"]  # "10" < "9"
        documents.sort(key=compile_sort_key([]))
        assert [doc["_id"] for doc in documents] == [10, 9, "a"]

    def test_dotted_sort_field(self):
        documents = [{"_id": 1, "a": {"b": 2}}, {"_id": 2, "a": {"b": 1}}, {"_id": 3}]
        documents.sort(key=compile_sort_key([("a.b", 1)]))
        assert [doc["_id"] for doc in documents] == [3, 2, 1]
