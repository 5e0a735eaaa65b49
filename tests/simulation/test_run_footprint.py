"""A simulation run's memory is its own.

Two runs of the same small origin-bound shape run one after the other in
one process, their seeds differing the way the benchmark's segments do
(``SimulationConfig.seed`` and ``WorkloadSpec.seed`` one apart).  After each
is freed (``del``, ``gc.collect()``) the test reads ``tracemalloc``'s traced
size: what the second run leaves behind may not exceed what the first left
by more than ``SLACK_BYTES``.

A run's own memos -- the record-key and record-tag memos and the Bloom
filters' probe and hash-pair memos -- are emptied when a
:class:`~repro.simulation.Simulator` is built and again when its ``run()``
has collected its result, so a freed run leaves only the bounded
process-wide hash memos.  A memo that outlives its run instead grows with
every run: keeping record tags across runs, or hashing Zipf ranks through
``stable_uint64``'s process memo, leaves the second uncached run about 80 KB
above the first at this size (each alone; 158 KB both); keeping the Bloom
memos across runs leaves the second cached run 193 KB above the first.
Identical seeds would not show that: both runs would ask for the very same
tags, ranks and keys.  Both an uncached and a cached (Quaestor) run are
measured.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.bloom.bloom_filter import _probe_memo
from repro.bloom.hashing import _blake2_pair_cached
from repro.db.query import RECORD_KEYS
from repro.rest.etags import etag_for_version
from repro.simulation import CachingMode, SimulationConfig, Simulator
from repro.workloads.dataset import DatasetSpec
from repro.workloads.generator import WorkloadSpec

#: What the second run may leave beyond the first: the tag memo's size
#: differs between seeds by some dozens of entries; over seven consecutive
#: segment pairs of this shape the difference ran from -6 KB to +12 KB.
SLACK_BYTES = 32 * 1024


@pytest.fixture(autouse=True)
def snapshot_guard():
    """Replaces the suite's guard: it keeps every installed snapshot until
    the test ends, which is the very retention measured here."""
    yield


def _simulator(mode: CachingMode, segment: int) -> Simulator:
    return Simulator(
        SimulationConfig(
            mode=mode,
            workload=WorkloadSpec(seed=11 + segment),
            dataset=DatasetSpec(num_tables=2, documents_per_table=2500, queries_per_table=20),
            num_clients=2,
            connections_per_client=4,
            max_operations=1500,
            duration=600,
            seed=segment,
        )
    )


def _run_and_free(mode: CachingMode, segment: int) -> int:
    """Build and run one segment, free it, and return the traced size."""
    simulator = _simulator(mode, segment)
    simulator.run()
    del simulator
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def _growth(mode: CachingMode) -> tuple:
    """Traced size after a freed first and a freed second run of ``mode``."""
    _run_and_free(mode, -1)  # untraced: lazy imports and one-time tables settle
    tracemalloc.start()
    try:
        return _run_and_free(mode, 0), _run_and_free(mode, 1)
    finally:
        tracemalloc.stop()


def test_a_freed_run_leaves_no_more_than_the_one_before():
    first, second = _growth(CachingMode.UNCACHED)
    assert second - first <= SLACK_BYTES, (first, second)


def test_a_freed_cached_run_leaves_no_more_than_the_one_before():
    first, second = _growth(CachingMode.QUAESTOR)
    assert second - first <= SLACK_BYTES, (first, second)


@pytest.mark.parametrize("mode", [CachingMode.UNCACHED, CachingMode.QUAESTOR])
def test_a_run_empties_its_memos_when_it_returns(mode):
    simulator = _simulator(mode, 0)
    simulator.run()
    assert not RECORD_KEYS
    for memo in (etag_for_version, _probe_memo, _blake2_pair_cached):
        assert memo.cache_info().currsize == 0, memo
