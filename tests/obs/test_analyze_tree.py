"""Trace analysis over a hand-built span tree.

One request root with a nested stage, a sibling stage, a repeated stage
name, a zero-cost span and a second root; each analysis step is checked on
it without a recorder in between.  The tree is built per test: a module
that kept ``Span`` objects alive would show up in the recorder allocation
counts of ``test_recorder_allocation.py``.
"""

from __future__ import annotations

import pytest

from repro.obs.analyze import (
    coverage,
    critical_path,
    descendants,
    index_spans,
    request_roots,
    stage_costs,
)
from repro.obs.trace import Span


def span(span_id, parent_id, name, cost):
    return Span(span_id, parent_id, name, 0.0, 0.0, cost, {})


#   1 sdk.read (1.0)
#   +-- 2 net.origin (0.4)
#   |   +-- 4 queue.origin (0.1)
#   |   +-- 5 net.origin (0.2)
#   +-- 3 server.read (0.0)
#       +-- 6 bloom.lookup (0.2)
#   7 sdk.query (0.5)
#   8 maintenance.refresh (0.3)   -- a root no client opened
@pytest.fixture
def spans():
    return [
        span(4, 2, "queue.origin", 0.1),
        span(5, 2, "net.origin", 0.2),
        span(2, 1, "net.origin", 0.4),
        span(6, 3, "bloom.lookup", 0.2),
        span(3, 1, "server.read", 0.0),
        span(1, None, "sdk.read", 1.0),
        span(7, None, "sdk.query", 0.5),
        span(8, None, "maintenance.refresh", 0.3),
    ]


@pytest.fixture
def tree(spans):
    """``(by_id, children)`` of the tree."""
    return index_spans(spans)


def test_index_maps_ids_and_parents(tree):
    by_id, children = tree
    assert set(by_id) == set(range(1, 9))
    assert [child.span_id for child in children[2]] == [4, 5]
    assert [root.span_id for root in children[None]] == [1, 7, 8]


def test_request_roots_are_the_client_operations_in_completion_order(spans):
    assert [root.span_id for root in request_roots(spans)] == [1, 7]


def test_descendants_are_depth_first(tree):
    by_id, children = tree
    assert [found.span_id for found in descendants(by_id[1], children)] == [2, 4, 5, 3, 6]
    assert descendants(by_id[7], children) == []


def test_stage_costs_sum_repeated_names_and_skip_free_spans(tree):
    by_id, children = tree
    costs = stage_costs(by_id[1], children)
    assert costs == pytest.approx({"net.origin": 0.6, "queue.origin": 0.1, "bloom.lookup": 0.2})
    assert "server.read" not in costs


def test_the_critical_path_breaks_cost_ties_by_name(tree):
    by_id, children = tree
    assert critical_path(by_id[1], children) == [
        ("net.origin", pytest.approx(0.6)),
        ("bloom.lookup", 0.2),
        ("queue.origin", 0.1),
    ]
    assert critical_path(by_id[1], children, k=1) == [("net.origin", pytest.approx(0.6))]


def test_coverage_is_the_attributed_share_of_the_root(tree):
    by_id, children = tree
    assert coverage(by_id[1], children) == pytest.approx(0.9)
    # A root with latency but no stages below it is wholly unaccounted.
    assert coverage(by_id[7], children) == 0.0
