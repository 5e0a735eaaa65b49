"""Machine-independent cost guard for the write path.

One client write runs ``db.update`` -> change stream -> server reaction (TTL
sample, auditor, EBF, CDN purge, the after-image appended to the pending
list) -> the server's drain -> matching nodes -> notification handling.  The chain is one frame per stage and every
consumer reads what the write seam already put on the change event; this
test counts, around one ``QuaestorClient.update`` / ``insert`` / ``delete``,

* Python frames (``sys.setprofile`` ``call`` events, as
  ``tests/client/test_hit_path_budget.py`` does), and
* all calls, Python and C (as ``cProfile`` and the benchmark's
  ``calls_per_op`` do),

so a return to a frame per helper, to per-consumer version / key lookups, to
recomputing both index key sets or to a matching cost that grows with the
registered queries fails here on any machine, without a wall-clock threshold.
Before the chain was flattened the plain update below cost 115 frames / 200
calls, the invalidating one 164 / 285, an insert 91 / 154, a delete 81 / 132.
While the after-image still went through a modelled InvaliDB change queue
and its ingestion task they cost 64 / 111, 87 / 158, 57 / 92 and 43 / 73;
without them 59 / 103, 82 / 149, 52 / 84 and 38 / 65.  Without the
session's map of its own writes (nothing read it), a single server's
change-stream history (nothing replays it) and a headers dict per response,
they cost 58 / 100, 81 / 146, 51 / 81 and 37 / 62.

Every scenario runs once unmeasured on a twin deployment first: the
process-wide hash memos (placement hashes) and the record-tag memo then
answer the measured run from memory whatever ran earlier in the process,
which makes the counts exact.  The tag memo lives for one simulation run (a
``Simulator`` empties it when it is built); no simulator runs here, so the
twin is what fills it.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.caching import InvalidationCache
from repro.client import QuaestorClient
from repro.clock import VirtualClock
from repro.core import QuaestorServer
from repro.db import Database, Query
from repro.invalidb import InvaliDBCluster

#: (frames, all calls) budgets: the measured cost of each write.
PLAIN_UPDATE = (58, 100)
INVALIDATING_UPDATE = (81, 146)
INSERT = (51, 81)
DELETE = (37, 62)
#: Pairs of cached queries no write below can touch.  The budgets hold with a
#: few of them (enough that both matching nodes index some); many more must
#: not add a single call.
FEW_FOREIGN_QUERIES = 8
MANY_FOREIGN_QUERIES = 48


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


def _client(foreign_queries: int) -> QuaestorClient:
    """A client in front of 20 indexed posts, one cached query that ``d001``
    belongs to, and ``2 * foreign_queries`` cached queries no write below can
    touch (another category value, another collection)."""
    clock = VirtualClock()
    database = Database(clock=clock)
    posts = database.create_collection("posts")
    posts.create_index("category")
    for number in range(20):
        posts.insert(
            {"_id": f"d{number:03d}", "category": number % 4, "views": number, "tags": ["a"]}
        )
    database.create_collection("other").insert({"_id": "o1", "category": 1})
    server = QuaestorServer(database, invalidb=InvaliDBCluster(matching_nodes=2))
    cdn = InvalidationCache("cdn", clock)
    server.register_purge_target(cdn)
    client = QuaestorClient(server, cdn=cdn, clock=clock)
    client.connect()
    assert len(client.query(Query("posts", {"category": 1})).value) == 5
    for number in range(foreign_queries):
        client.query(Query("posts", {"category": 100 + number}))
        client.query(Query("other", {"category": 5 + number}))
    assert server.invalidb.active_queries == 1 + 2 * foreign_queries
    return client


def _cost(write, foreign_queries: int = FEW_FOREIGN_QUERIES):
    write(_client(foreign_queries))  # the twin: warms the hash and tag memos
    client = _client(foreign_queries)
    invalidations = client.server.counters.get("query_invalidations")
    cost = _calls_during(lambda: write(client))
    return cost, client.server.counters.get("query_invalidations") - invalidations


def _plain_update(client):
    assert client.update("posts", "d002", {"$inc": {"views": 1}}).version == 2


def _invalidating_update(client):
    assert client.update("posts", "d001", {"$inc": {"views": 1}}).version == 2


def _insert(client):
    assert client.insert("posts", {"_id": "new", "category": 2, "views": 0}).version == 1


def _delete(client):
    assert client.delete("posts", "d006").value["_id"] == "d006"


def _within(cost, budget) -> bool:
    return cost[0] <= budget[0] and cost[1] <= budget[1]


def test_an_update_that_touches_no_cached_query_fits_the_budget():
    cost, invalidations = _cost(_plain_update)
    assert invalidations == 0
    assert _within(cost, PLAIN_UPDATE), cost


def test_an_update_that_invalidates_a_cached_query_fits_the_budget():
    cost, invalidations = _cost(_invalidating_update)
    assert invalidations == 1
    assert _within(cost, INVALIDATING_UPDATE), cost


def test_an_insert_fits_the_budget():
    cost, _ = _cost(_insert)
    assert _within(cost, INSERT), cost


def test_a_delete_fits_the_budget():
    cost, _ = _cost(_delete)
    assert _within(cost, DELETE), cost


def test_queries_that_cannot_match_cost_a_write_nothing():
    for write in (_plain_update, _invalidating_update, _insert, _delete):
        few, _ = _cost(write)
        many, _ = _cost(write, MANY_FOREIGN_QUERIES)
        assert many == few, (write.__name__, few, many)


def test_the_count_sees_what_it_claims_to():
    """Vacuity check: a consumer that looks up what the event already carries
    (the shape this path replaced) and a scan over every registered query are
    both visible to the count."""
    client = _client(FEW_FOREIGN_QUERIES)
    database = client.server.database

    def relookup(event):
        database.collection(event.collection).version(event.document_id)

    database.subscribe(relookup)
    frames, calls = _calls_during(lambda: _plain_update(client))
    assert frames > PLAIN_UPDATE[0] and calls > PLAIN_UPDATE[1]

    def scanning_cost(foreign_queries):
        client = _client(foreign_queries)
        for node in client.server.invalidb.nodes:
            index = node._index
            index.candidates = lambda event, states=index._states: list(states.values())
        return _calls_during(lambda: _plain_update(client))

    few, many = scanning_cost(FEW_FOREIGN_QUERIES), scanning_cost(MANY_FOREIGN_QUERIES)
    assert many[0] - few[0] >= MANY_FOREIGN_QUERIES - FEW_FOREIGN_QUERIES
