"""The query plan's contracts: laziness, error timing, pickling, alias sharing."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.db import Database, Query
from repro.db.predicates import compile_criteria, matches
from repro.errors import InvalidQueryError

#: Filters ``Query(...)`` accepts (only operator *names* are checked up front)
#: but evaluation rejects.
MALFORMED = [
    {"$and": []},
    {"$or": "not-a-list"},
    {"$nor": [1]},
    {"views": {"$gt": 1, "literal": 2}},
    {"$gt": 5},  # an operator where a field or $and/$or/$nor belongs
    {"views": {"$in": 3}},
    {"views": {"$regex": "("}},
    {"views": {"$mod": [0, 1]}},
    {"views": {"$not": 3}},
    {"tags": {"$elemMatch": 3}},
    {"views": {"$size": "two"}},
]


class TestErrorTiming:
    @pytest.mark.parametrize("criteria", MALFORMED)
    def test_construction_is_permissive_and_first_use_raises(self, criteria):
        query = Query("posts", criteria)  # does not raise
        assert query.cache_key  # neither does normalisation
        with pytest.raises(InvalidQueryError):
            query.plan.matches({"_id": 1, "views": 7, "tags": [1]})
        with pytest.raises(InvalidQueryError):  # and every later use
            query.plan.matches({"_id": 1})
        with pytest.raises(InvalidQueryError):
            matches({"_id": 1, "views": 7, "tags": [1]}, criteria)

    @pytest.mark.parametrize("criteria", MALFORMED)
    def test_same_error_class_as_the_interpreter_when_it_got_that_far(self, reference, criteria):
        with pytest.raises(InvalidQueryError) as interpreted:
            reference.matches({"_id": 1, "views": 7, "tags": [1]}, criteria)
        with pytest.raises(InvalidQueryError) as compiled:
            compile_criteria(criteria)
        assert str(compiled.value) == str(interpreted.value)

    @pytest.mark.parametrize("criteria", MALFORMED)
    def test_find_raises_even_with_nothing_to_match(self, criteria):
        """The interpreter only noticed once a candidate reached the bad clause."""
        posts = Database().create_collection("posts")
        with pytest.raises(InvalidQueryError):
            posts.find(Query("posts", criteria))

    def test_short_circuiting_no_longer_hides_a_bad_clause(self, reference):
        document = {"_id": 1, "views": 1}
        for criteria in (
            {"views": {"$gt": 100}, "$and": []},
            {"$or": [{"views": 1}, {"$and": []}]},
            {"views": {"$lt": 0, "$bogus": 1}},
        ):
            reference.matches(document, criteria)  # short-circuits past it
            with pytest.raises(InvalidQueryError):
                matches(document, criteria)

    def test_malformed_paths_raise_value_error_as_before(self, reference):
        with pytest.raises(ValueError):
            reference.matches({"a": 1}, {"a..b": 1})
        with pytest.raises(ValueError):
            Query("posts", {"a..b": 1}).plan.matches({"a": 1})


class TestLaziness:
    def test_plan_is_built_on_first_use_and_kept(self):
        query = Query("posts", {"category": 3}, sort=[("views", -1)])
        assert query._plan is None
        query.cache_key, hash(query)  # neither needs it
        assert query._plan is None
        assert query.plan.matches({"category": 3.0})
        assert query.plan is query.plan

    def test_index_probes_are_the_top_level_equalities(self):
        query = Query(
            "posts",
            {"a": 1, "b": {"$eq": "x"}, "c": {"$gt": 2}, "d": {"$eq": 1, "$lt": 3}, "$or": [{"e": 1}]},
        )
        assert [field for field, _ in query.plan.index_probes] == ["a", "b"]
        float_probe = Query("posts", {"a": 1.0}).plan.index_probes
        assert float_probe == query.plan.index_probes[:1]  # numbers are one class
        assert Query("posts", {"a": True}).plan.index_probes != float_probe  # bool is not


class TestPickling:
    def test_round_trip_of_an_already_matched_query(self):
        """Spawn safety: a job mapped to a worker process may carry queries."""
        query = Query("posts", {"category": 3, "tags": {"$in": ["a"]}}, sort=[("views", -1)], limit=2)
        assert query.plan.matches({"category": 3, "tags": ["a"]})
        clone = pickle.loads(pickle.dumps(query))
        assert clone == query and clone.cache_key == query.cache_key
        assert (clone.collection, clone.criteria, clone.sort, clone.limit, clone.offset) == (
            query.collection, query.criteria, query.sort, query.limit, query.offset,
        )
        assert clone._plan is None  # closures stay behind; the copy recompiles
        assert clone.plan.matches({"category": 3, "tags": ["a"]})
        assert copy.deepcopy(query).plan.matches({"category": 3, "tags": ["a"]})

    def test_alias_key_survives_pickling(self):
        alias = Query("posts", {"category": 3}, limit=5).aliased("query:original")
        alias.plan
        assert pickle.loads(pickle.dumps(alias)).cache_key == "query:original"


class TestAliasing:
    def test_alias_shares_the_compiled_plan(self):
        query = Query("posts", {"category": 3}, sort=[("views", 1)], limit=4)
        plan = query.plan
        alias = query.aliased("query:original")
        assert alias.plan is plan
        assert alias.cache_key == "query:original" and query.cache_key != alias.cache_key

    def test_alias_of_an_unused_query_stays_lazy_and_permissive(self):
        alias = Query("posts", {"$and": []}).aliased("k")
        assert alias._plan is None
        with pytest.raises(InvalidQueryError):
            alias.plan
