"""The simulator prices a fleet only through the fleet pricer.

Where a request ran is decided once, by the cluster, which reports it; the
one piece of simulation code that reads cluster state is
:mod:`repro.simulation.fleet`.  This guard parses ``simulator.py`` and
fails if it reads the cluster's routing or replica state, touches the
resilience runtime or writes into its request trace, or branches on whether
a cluster or a runtime exists -- each is a second module deciding placement
or resilience pricing beside the one seam.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.simulation.simulator as simulator_module

#: Cluster internals only the fleet pricer may read.
FLEET_STATE = frozenset(
    {
        "router",
        "groups",
        "gray",
        "primary_node",
        "last_served_node_id",
        "serving_node_ids",
        "resilience_runtime",
        "take_trace",
    }
)
#: Names whose ``is None`` test would be a per-deployment branch.
DEPLOYMENT_HANDLES = frozenset({"cluster", "runtime", "_resilience_runtime"})


def _tree() -> ast.AST:
    return ast.parse(Path(simulator_module.__file__).read_text())


def _name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def test_the_simulator_reads_no_cluster_internals():
    reads = sorted(
        (node.lineno, node.attr)
        for node in ast.walk(_tree())
        if isinstance(node, ast.Attribute) and node.attr in FLEET_STATE
    )
    assert reads == []


def test_the_simulator_writes_nothing_into_a_request_trace():
    writes = sorted(
        node.lineno
        for node in ast.walk(_tree())
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, (ast.Store, ast.Del))
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "trace"
    )
    assert writes == []


def test_the_simulator_does_not_branch_on_the_deployment_kind():
    branches = sorted(
        node.lineno
        for node in ast.walk(_tree())
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(
            isinstance(side, ast.Constant) and side.value is None
            for side in (node.left, *node.comparators)
        )
        and any(_name(side) in DEPLOYMENT_HANDLES for side in (node.left, *node.comparators))
    )
    assert branches == []
