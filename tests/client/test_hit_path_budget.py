"""Machine-independent cost guard for the cached read path.

Counts Python-level calls (``sys.setprofile`` ``call`` events -- frames, as
opposed to the C builtins ``tests/db/test_query_plan_budget.py`` also counts)
around one client-cache hit.  The path is one frame per tier: SDK entry ->
fetch decision -> EBF probe -> hierarchy -> cache lookup, plus one session
call for a read and one batch restamp for a query -- whatever the result's
size -- under one clock read per operation.  Before the path was flattened a
read hit took 35 frames and a 10-member object-list hit 89, growing by 6 per
member; the flattened path took 15 and 16, and with one instant per
operation, no dispatch frame, no whitelist or consistency-level frames, one
session call and a re-served body restamped as prepared it takes 10 and 11.
A return to per-member stores or to a frame per helper fails here on any
machine, without a wall-clock threshold.
"""

from __future__ import annotations

import sys

from repro.caching import InvalidationCache
from repro.caching.entry import CacheEntry
from repro.client import QuaestorClient
from repro.clock import VirtualClock
from repro.core import QuaestorServer
from repro.db import Database, Query

READ_HIT_CALLS = 10
QUERY_HIT_CALLS = 11
#: A hit of a 10-member result may cost at most this much more than a 3-member one.
MEMBERSHIP_SLACK = 2


def _python_calls_during(function) -> int:
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


def _client(members: int):
    clock = VirtualClock()
    database = Database(clock=clock)
    posts = database.create_collection("posts")
    for number in range(members):
        posts.insert({"_id": f"d{number:03d}", "category": 3, "views": number})
    client = QuaestorClient(
        QuaestorServer(database), cdn=InvalidationCache("cdn", clock), clock=clock
    )
    client.connect()
    return client


def _query_hit_cost(members: int) -> int:
    client = _client(members)
    query = Query("posts", {"category": 3})
    client.query(query)
    served = client.query(query)  # steady state: entries prepared, memo warm
    assert served.level == "client" and len(served.value) == members
    assert client.read("posts", "d001").level == "client"  # members were side-cached
    return _python_calls_during(lambda: client.query(query)) - 1  # minus the lambda


def test_a_client_cache_read_hit_fits_the_budget():
    client = _client(3)
    client.read("posts", "d001")
    assert client.read("posts", "d001").level == "client"
    cost = _python_calls_during(lambda: client.read("posts", "d001")) - 1
    assert cost <= READ_HIT_CALLS, cost


def test_an_object_list_hit_fits_the_budget_whatever_its_size():
    three, ten = _query_hit_cost(3), _query_hit_cost(10)
    assert ten <= QUERY_HIT_CALLS, ten
    assert ten - three <= MEMBERSHIP_SLACK, (three, ten)


def test_the_count_sees_what_it_claims_to():
    """Vacuity check: a store per member, the shape this path replaced, blows
    the budget and grows with membership."""
    client = _client(10)
    cache, now = client.client_cache, client.now()

    def per_member_stores(members: int) -> int:
        def serve():
            for number in range(members):
                cache.store_entry(CacheEntry(f"record:posts/d{number:03d}", {}, None, now, 5.0))
                client.session.observe_read(f"record:posts/d{number:03d}", 1, None)

        return _python_calls_during(serve) - 1

    three, ten = per_member_stores(3), per_member_stores(10)
    assert ten > QUERY_HIT_CALLS
    assert ten - three > MEMBERSHIP_SLACK
