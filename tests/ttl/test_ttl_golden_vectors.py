"""Golden-vector tests: every estimator's output on one fixed write trace.

The trace drives three keys at clearly different rates (hot: every 2 s, warm:
every 15 s, cold: a single write) plus two query-invalidation feedback events,
then reads seven estimates off each registered estimator family and off the
dual strategy on the windowed write-rate sampler (``quaestor/window``).  The
pinned floats must match *exactly* -- any estimator change shows up here
first, as an auditable diff of concrete TTL values rather than a shifted
simulation summary.

The vectors also document the one behavioural split between the sampler's
two modes: ``quaestor`` (span sampler, the default) derives a rate from
``cold``'s lone write (``record_cold`` = 19.4 s), while ``quaestor/window``
keeps the default-rate prior for a single observation (``record_cold`` =
prior).
"""

from __future__ import annotations

import pytest

from repro.ttl import (
    ESTIMATOR_NAMES,
    QuaestorTTLEstimator,
    TTLBounds,
    TTLEstimatorSpec,
    WriteRateSampler,
)

#: The dual strategy on the windowed sampler, pinned beside the registry.
WINDOWED = "quaestor/window"

BOUNDS = TTLBounds(minimum=0.1, maximum=3600.0)

GOLDEN_VECTORS = {
    "static": {
        "record_hot": 60.0,
        "record_warm": 60.0,
        "record_cold": 60.0,
        "record_unseen": 60.0,
        "query_mixed": 60.0,
        "query_cold": 60.0,
        "query_empty": 60.0,
    },
    "alex": {
        "record_hot": 4.2,
        "record_warm": 0.2,
        "record_cold": 5.6000000000000005,
        "record_unseen": 300.0,
        "query_mixed": 0.2,
        "query_cold": 5.6000000000000005,
        "query_empty": 300.0,
    },
    "quaestor": {
        "record_hot": 2.0447841826518385,
        "record_warm": 7.971192576439371,
        "record_cold": 19.408121055678468,
        "record_unseen": 415.88830833596717,
        "query_mixed": 4.10753670055951,
        "query_cold": 19.408121055678468,
        "query_empty": 415.88830833596717,
    },
    WINDOWED: {
        "record_hot": 2.0447841826518385,
        "record_warm": 7.971192576439371,
        "record_cold": 415.88830833596717,
        "record_unseen": 415.88830833596717,
        "query_mixed": 4.10753670055951,
        "query_cold": 415.88830833596717,
        "query_empty": 415.88830833596717,
    },
}


def run_trace(name: str):
    if name == WINDOWED:
        estimator = QuaestorTTLEstimator(
            bounds=BOUNDS, sampler=WriteRateSampler(estimation="window")
        )
    else:
        estimator = TTLEstimatorSpec.of(name).build(bounds=BOUNDS)
    for index in range(20):
        estimator.observe_write("hot", 2.0 * (index + 1))
    for index in range(4):
        estimator.observe_write("warm", 15.0 * (index + 1))
    estimator.observe_write("cold", 33.0)
    estimator.estimate_query("q1", ["hot", "warm"], 45.0)
    estimator.observe_query_invalidation("q1", 4.0, 50.0)
    estimator.observe_query_invalidation("q1", 9.0, 58.0)
    now = 61.0
    return {
        "record_hot": estimator.estimate_record("hot", now),
        "record_warm": estimator.estimate_record("warm", now),
        "record_cold": estimator.estimate_record("cold", now),
        "record_unseen": estimator.estimate_record("unseen", now),
        "query_mixed": estimator.estimate_query("q1", ["hot", "warm"], now),
        "query_cold": estimator.estimate_query("q2", ["cold"], now),
        "query_empty": estimator.estimate_query("q3", [], now),
    }


class TestGoldenVectors:
    def test_every_registered_estimator_is_pinned(self):
        assert set(GOLDEN_VECTORS) == {*ESTIMATOR_NAMES, WINDOWED}

    @pytest.mark.parametrize("name", sorted(GOLDEN_VECTORS))
    def test_estimates_match_the_pinned_vector_exactly(self, name):
        assert run_trace(name) == GOLDEN_VECTORS[name]

    def test_window_and_span_samplers_split_on_the_lone_write(self):
        span = run_trace("quaestor")
        window = run_trace(WINDOWED)
        # Identical on multi-write keys, different on the single-write key:
        # span derives a rate from one observation, window keeps the prior.
        assert span["record_hot"] == window["record_hot"]
        assert span["record_warm"] == window["record_warm"]
        assert span["record_cold"] != window["record_cold"]
