"""Machine-independent cost guard for the origin query path.

One uncached ``QuaestorServer.handle_query`` executes the query at the
origin and answers it with an ETag over the member ids and versions.  The
first cached one also admits the query (capacity probe and commit),
estimates its TTL, registers it in InvaliDB -- the server's drain then
matches whatever after-images are pending -- and enters it into the active
list.  This test counts, around one such query on a 10-member result,

* Python frames (``sys.setprofile`` ``call`` events, as
  ``tests/core/test_write_path_budget.py`` does), and
* all calls, Python and C (as ``cProfile`` and the benchmark's
  ``calls_per_op`` do),

once when the memos miss (the first execution) and once when they hit (the
result is unchanged since the last one).  A covered index plan runs no
predicate and no per-member sort key, the collection hands the versions
back with the documents, an unchanged covered result comes back from the
collection's stamped memo as the very list and map it handed out before,
and the server reuses that map's tag without comparing it -- so a return to
filtering an index bucket, to a Python sort key per member, to a separate
``str(_id)`` pass for the versions or the id list, to re-executing an
unchanged query or to rendering every tag afresh fails here on any machine,
without a wall-clock threshold.  Before, this query cost 54 frames / 96
calls on its first execution and 54 / 95 on the next (there was no memo);
with the tag memo a miss cost 27 / 40 and a hit 25 / 31; with the result
memo a miss cost 24 / 37 and a hit 17 / 19.  While the activation went
through a modelled InvaliDB query queue and its ingestion task, the first
cached query cost 144 / 212; without them it cost 136 / 196, so a return to
a frame per hand-off between the server and InvaliDB fails here too.  While
the server ran a query through a staged read pipeline (a stage method per
step and a context object carrying the state between them), a miss cost
24 / 37, a hit 17 / 19 and the first cached query 136 / 196; with the steps
in line and one commit step a miss costs 18 / 31, a hit 11 / 13 and the
first cached query 125 / 184.

Every measured run is preceded by one on a twin server: the query's compiled plan
and the process-wide memo tables then answer the measured runs the same way
whatever ran earlier in the process, which makes the counts exact.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.clock import VirtualClock
from repro.core import QuaestorServer
from repro.core.config import QuaestorConfig
from repro.db import Database, Query

#: (frames, all calls) budgets.
MEMO_MISS = (18, 31)
MEMO_HIT = (11, 13)
FIRST_CACHED_QUERY = (125, 184)


@pytest.fixture(autouse=True)
def snapshot_guard():
    """Replaces the suite's guard: its wrapper around the install seam adds
    frames that are not the path's."""
    yield


def _calls_during(function):
    frames = c_calls = 0

    def profiler(frame, event, arg):
        nonlocal frames, c_calls
        if event == "call":
            frames += 1
        elif event == "c_call":
            c_calls += 1

    # No collection inside the count: one would run ``gc.callbacks`` (a
    # hypothesis test earlier in the process installs one) as frames here.
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    frames -= 1  # the lambda itself
    return frames, frames + c_calls - 1  # the closing sys.setprofile(None) is seen as a c_call


def _server(caching: bool = False) -> QuaestorServer:
    """A server in front of 40 posts indexed on ``category``."""
    database = Database(clock=VirtualClock())
    posts = database.create_collection("posts")
    posts.create_index("category")
    for number in range(40):
        posts.insert({"_id": f"d{number:03d}", "category": number % 4, "views": number})
    return QuaestorServer(database, config=QuaestorConfig(caching=caching))


QUERY = Query("posts", {"category": 2})


def _costs():
    """``(miss, hit)``: the first and the second execution on a fresh server."""
    assert len(_server().handle_query(QUERY).body["documents"]) == 10  # the twin
    server = _server()
    miss = _calls_during(lambda: server.handle_query(QUERY))
    hit = _calls_during(lambda: server.handle_query(QUERY))
    return miss, hit


def _registration_cost(server: QuaestorServer):
    """The first cached query on ``server``, which registers it in InvaliDB."""
    cost = _calls_during(lambda: server.handle_query(QUERY))
    assert server.invalidb.is_registered(QUERY.cache_key)
    return cost


def _first_cached_cost():
    assert len(_server(caching=True).handle_query(QUERY).body["documents"]) == 10  # the twin
    return _registration_cost(_server(caching=True))


def _within(cost, budget) -> bool:
    return cost[0] <= budget[0] and cost[1] <= budget[1]


def test_a_query_whose_tag_memo_misses_fits_the_budget():
    miss, _hit = _costs()
    assert _within(miss, MEMO_MISS), miss


def test_a_query_whose_result_is_unchanged_fits_the_budget():
    _miss, hit = _costs()
    assert _within(hit, MEMO_HIT), hit


def test_a_cached_query_registering_in_invalidb_fits_the_budget():
    cost = _first_cached_cost()
    assert _within(cost, FIRST_CACHED_QUERY), cost


def test_the_count_sees_the_registration():
    """Vacuity check: the registration is visible to the count (the repeat
    query, already registered, costs less), and so is an after-image the
    registration's drain matches."""
    first = _first_cached_cost()
    server = _server(caching=True)
    server.handle_query(QUERY)
    repeat = _calls_during(lambda: server.handle_query(QUERY))
    assert repeat[0] < first[0] and repeat[1] < first[1], (first, repeat)

    server = _server(caching=True)
    server.database.update("posts", "d002", {"$inc": {"views": 1}})  # pending at registration
    with_pending = _registration_cost(server)
    assert with_pending[0] > first[0] and with_pending[1] > first[1], (first, with_pending)


def test_the_count_sees_what_it_claims_to():
    """Vacuity check: the tag rendering a hit skips is visible to the count,
    and an unindexed (filtered) execution costs more than a covered one."""
    miss, hit = _costs()
    assert hit[1] < miss[1]

    server = _server()
    unindexed = Query("posts", {"views": {"$gte": 0}, "category": 2})
    server.handle_query(unindexed)
    filtered = _calls_during(lambda: server.handle_query(unindexed))
    assert filtered[0] > hit[0] + 10, filtered
