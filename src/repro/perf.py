"""Global switch between the optimized and the legacy simulation hot paths.

The end-to-end throughput overhaul (memoized ETag rendering, batched workload
sampling) changes *how much work* one simulated
operation costs, never *what it computes*: a seeded
:class:`~repro.simulation.SimulationResult` is value-identical either way.
``benchmarks/bench_sim_throughput.py`` relies on that to measure before/after
on the same machine in the same process -- the baseline leg runs under
:func:`legacy_hot_paths`, which restores the pre-overhaul per-operation code
paths (uncached ETag rendering, per-operation RNG sampling), and the report
gates on the optimized-vs-legacy ratio so the guard is independent of runner
speed.  Document cloning is no longer one of those paths: stored document
versions are immutable and shared by reference in both legs (see
:mod:`repro.db.collection`).

This module is a dependency leaf: it must not import anything from
:mod:`repro`, because the lowest layers (``repro.rest.etags``) consult it on
their hot paths.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

#: When ``True`` (the default), every hot path takes its optimized form.
FAST_PATHS: bool = True


def set_fast_paths(enabled: bool) -> None:
    """Toggle the hot-path implementation globally (tests / benchmarks)."""
    global FAST_PATHS
    FAST_PATHS = bool(enabled)


@contextmanager
def legacy_hot_paths() -> Iterator[None]:
    """Run a block on the pre-overhaul per-operation code paths.

    Used by the throughput benchmark to produce an in-process baseline that
    performs the original amount of per-operation work.  Restores the
    previous setting on exit, even on error.
    """
    previous = FAST_PATHS
    set_fast_paths(False)
    try:
        yield
    finally:
        set_fast_paths(previous)
