"""The ring's placement memo answers exactly what a fresh ring would.

``ConsistentHashRing.shard_for`` memoises key -> shard, so a request pays for
its placement once however many consumers look the key up again (routing
statistics, capacity and latency pricing).  The memo is emptied on every
membership change and when it reaches ``PLACEMENT_MEMO_SIZE`` keys.  This
property interleaves generated lookups with ``add_shard`` on one long-lived
ring and requires every answer to equal that of a ring
built fresh with the same membership: a memo that outlived a membership
change answers for a ring that no longer exists, and fails here.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.db import sharding
from repro.db.sharding import ConsistentHashRing

KEYS = tuple(f"record:posts/p{number}" for number in range(40))
#: Fewer virtual nodes than the ring's 64 keep a fresh ring per lookup cheap.
VIRTUAL_NODES = 8

steps = st.one_of(
    st.tuples(st.just("lookup"), st.sampled_from(KEYS)),
    st.tuples(st.just("add"), st.integers(min_value=0, max_value=5)),
)


@mock.patch.object(sharding, "VIRTUAL_NODES", VIRTUAL_NODES)
def _replay(steps) -> None:
    members = set(range(3))
    ring = ConsistentHashRing(members)
    for kind, value in steps:
        if kind == "add":
            ring.add_shard(value)
            members.add(value)
        else:
            fresh = ConsistentHashRing(sorted(members))
            assert ring.shard_for(value) == fresh.shard_for(value), (value, sorted(members))


@given(st.lists(steps, min_size=1, max_size=80))
@settings(max_examples=300, deadline=None)
def test_memoised_placement_equals_a_fresh_rings_across_membership_changes(steps):
    _replay(steps)


@given(st.lists(steps, min_size=1, max_size=80))
@settings(max_examples=100, deadline=None)
def test_a_full_memo_starts_over_without_changing_an_answer(steps):
    with mock.patch.object(sharding, "PLACEMENT_MEMO_SIZE", 3):
        _replay(steps)
        ring = ConsistentHashRing(range(4))
        for key in KEYS:
            ring.shard_for(key)
            assert len(ring._placements) <= 3
