"""Unit tests for benchmark utility pieces (no full simulation runs)."""

from __future__ import annotations

import pytest

from repro.benchmarks.figure11 import RecordingTTLEstimator
from repro.benchmarks.figure8 import figure8_summary
from repro.core.consistency import ConsistencyLevel
from repro.simulation.simulator import CachingMode
from repro.ttl import QuaestorTTLEstimator


class TestRecordingEstimator:
    def test_records_paired_estimates_and_true_ttls(self):
        recorder = RecordingTTLEstimator(QuaestorTTLEstimator())
        estimate = recorder.estimate_query("query:q", ["record:posts/a"], now=0.0)
        recorder.estimate_query("query:never-invalidated", [], now=0.0)
        recorder.observe_query_invalidation("query:q", actual_ttl=12.5, timestamp=20.0)
        # Only the invalidated query contributes, and it contributes a pair.
        assert recorder.estimated_ttls == [estimate]
        assert recorder.true_ttls == [12.5]

    def test_unseen_query_invalidation_is_ignored(self):
        recorder = RecordingTTLEstimator(QuaestorTTLEstimator())
        recorder.observe_query_invalidation("query:unknown", actual_ttl=3.0, timestamp=1.0)
        assert recorder.estimated_ttls == []
        assert recorder.true_ttls == []

    def test_delegates_record_estimates(self):
        inner = QuaestorTTLEstimator()
        recorder = RecordingTTLEstimator(inner)
        recorder.observe_write("record:posts/a", timestamp=1.0)
        assert recorder.estimate_record("record:posts/a", now=2.0) == inner.estimate_record(
            "record:posts/a", now=2.0
        )
        # Record estimates are not part of the Figure 11 query-TTL comparison.
        assert recorder.estimated_ttls == []


class TestFigure8Summary:
    def test_speedup_factors(self):
        class _Result:
            def __init__(self, throughput: float) -> None:
                self.throughput = throughput

        results = {
            CachingMode.QUAESTOR.value: _Result(100_000.0),
            CachingMode.UNCACHED.value: _Result(10_000.0),
            CachingMode.EBF_ONLY.value: _Result(20_000.0),
            CachingMode.CDN_ONLY.value: _Result(60_000.0),
        }
        summary = figure8_summary(results)
        assert summary["speedup_vs_uncached"] == pytest.approx(10.0)
        assert summary["speedup_vs_ebf_only"] == pytest.approx(5.0)
        assert summary["speedup_vs_cdn_only"] == pytest.approx(100.0 / 60.0)


class TestConsistencyLevels:
    def test_strong_level_always_revalidates(self, deployment):
        client = deployment["client"]
        client.read("posts", "p1")  # cached at every level
        assert client.read("posts", "p1", ConsistencyLevel.DELTA_ATOMIC).level == "client"
        assert client.read("posts", "p1", ConsistencyLevel.CAUSAL).level == "client"
        strong = client.read("posts", "p1", ConsistencyLevel.STRONG)
        assert strong.level == "origin"
        assert strong.revalidated

    def test_levels_are_string_valued(self):
        assert ConsistencyLevel("delta-atomic") is ConsistencyLevel.DELTA_ATOMIC
        assert ConsistencyLevel("causal") is ConsistencyLevel.CAUSAL
