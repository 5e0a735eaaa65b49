"""Machine-independent cost guard for the compiled query plan.

Counts function calls (Python and C, as ``cProfile`` and the benchmark's
``calls_per_op`` do) around ``Collection.find`` of an equality query -- the
shape of every dataset query.

* **Covered** (the field is indexed): the bucket is the match set and the
  default order is the id order, so a candidate costs no call at all -- the
  ids sort in C.  Before, the bucket was filtered with the matcher and sorted
  with a Python key: 4 calls a candidate.
* **Filtered** (no index): a candidate costs the matcher call and its
  ``dict.get``.  The budget stays at the 4 the plan was first pinned at; the
  predicate *interpreter* it replaced paid 34 (16 of them Python-level), so
  falling back to per-document interpretation fails here on any machine,
  without a wall-clock threshold.
"""

from __future__ import annotations

import sys

from repro.db import Database, Query

CALLS_PER_CANDIDATE = 4
COVERED_CALLS_PER_CANDIDATE = 1
#: find -> candidates -> index probe -> sort/window: independent of the result size.
FIXED_CALLS_PER_FIND = 16


def _calls_during(function) -> int:
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls - 1  # the closing sys.setprofile(None) is seen as a c_call


def _find_cost(candidates: int, indexed: bool = True) -> int:
    """Calls of one ``find`` that meets ``candidates`` documents, a fifth of them matching."""
    posts = Database().create_collection("posts")
    if indexed:
        posts.create_index("category")
        candidates *= 5  # the index narrows to the matching fifth
    for number in range(candidates):
        posts.insert({"_id": f"d{number:04d}", "category": number % 5, "views": number})
    query = Query("posts", {"category": 3})
    assert len(posts.find(query)) == candidates // 5  # also builds the plan: steady state below
    return _calls_during(lambda: posts.find(query)) - 1  # minus the lambda itself


def test_a_covered_find_costs_at_most_one_call_per_candidate():
    ten, thirty = _find_cost(10), _find_cost(30)
    per_candidate = (thirty - ten) / 20
    assert per_candidate <= COVERED_CALLS_PER_CANDIDATE, per_candidate
    assert ten - 10 * per_candidate <= FIXED_CALLS_PER_FIND, ten


def test_equality_find_costs_at_most_four_calls_per_candidate():
    ten, thirty = _find_cost(10, indexed=False), _find_cost(30, indexed=False)
    per_candidate = (thirty - ten) / 20
    assert per_candidate <= CALLS_PER_CANDIDATE, per_candidate
    assert ten - 10 * per_candidate <= FIXED_CALLS_PER_FIND, ten


def test_the_count_sees_what_it_claims_to():
    """Vacuity check: interpreting per document (compile in the loop) blows the budget."""
    from repro.db.predicates import matches

    documents = [{"_id": number, "category": 3} for number in range(10)]
    interpreted = _calls_during(lambda: [matches(doc, {"category": 3}) for doc in documents])
    assert interpreted / 10 > CALLS_PER_CANDIDATE
