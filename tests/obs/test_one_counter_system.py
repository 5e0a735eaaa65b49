"""Everything is counted once, in ``repro.metrics``; the registry only reads.

A run's tallies live in :class:`repro.metrics.Counter` and its latency
samples in :class:`repro.metrics.Histogram`; ``statistics()`` snapshots and
the labelled rows of :class:`repro.obs.MetricsRegistry` are views over them.
This guard parses every module under ``src/repro`` outside ``repro.obs`` and
fails if one calls a registry-style publishing method (``inc``, ``counter``,
``gauge``, ``histogram``, ``counters``, ``histograms``) or builds a registry
anywhere but the simulator -- each would be a second place that counts.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.obs import MetricsRegistry

PUBLISHING = frozenset({"inc", "counter", "gauge", "histogram", "counters", "histograms"})
SRC = Path(repro.__file__).parent
OBS = SRC / "obs"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        if OBS not in path.parents:
            yield path, ast.parse(path.read_text())


def test_no_module_outside_obs_publishes_into_a_registry():
    calls = sorted(
        (str(path.relative_to(SRC)), node.lineno, node.func.attr)
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in PUBLISHING
    )
    assert calls == []


def test_only_the_simulator_builds_a_registry():
    builders = sorted(
        str(path.relative_to(SRC))
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "MetricsRegistry"
    )
    assert builders == ["simulation/simulator.py"]


def test_the_registry_has_no_write_path():
    assert not PUBLISHING & set(dir(MetricsRegistry))


def test_the_guard_sees_a_publishing_call():
    """Vacuity check: the walk finds the calls it claims to forbid."""
    tree = ast.parse("registry.counter('ops').inc()\n")
    found = {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert {"counter", "inc"} <= found & PUBLISHING
