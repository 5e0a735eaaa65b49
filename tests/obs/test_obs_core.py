"""Unit tests for the observability layer: tracing, registry, export, analysis."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.metrics import Counter, Histogram
from repro.obs import (
    MetricsRegistry,
    ObservabilityConfig,
    Span,
    TraceRecorder,
    coverage,
    critical_path,
    index_spans,
    json_artifact,
    latency_attribution,
    percentile_root,
    prometheus_text,
    render_report,
    render_waterfall,
    request_roots,
    write_artifacts,
)
from repro.simulation.simulator import SimulationConfig


def row(span) -> tuple:
    """A span as its picklable row (what ``TraceRecorder.span_tuples`` emits)."""
    return (
        span.span_id, span.parent_id, span.name, span.start, span.end, span.cost,
        tuple(sorted(span.attrs.items())),
    )


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self._now = now

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        self._now += dt


class TestObservabilityConfig:
    def test_defaults_and_full(self):
        config = ObservabilityConfig.full()
        assert config.trace and config.metrics
        assert config.sample_every == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservabilityConfig(sample_every=0)
        with pytest.raises(ValueError):
            ObservabilityConfig(sample_every=-2)
        with pytest.raises(ValueError):
            ObservabilityConfig(metrics_interval=0.0)
        with pytest.raises(ValueError):
            ObservabilityConfig(metrics_interval=-1.0)

    def test_simulation_config_rejects_wrong_type(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(observability="yes")


class TestTraceRecorder:
    def test_nested_spans_and_parents(self):
        clock = FakeClock()
        tracer = TraceRecorder(clock)
        root = tracer.begin("sdk.read")
        child = tracer.begin("cluster.read")
        tracer.end(child, "shard", 1)
        tracer.end(root)
        # The write side hands out integer handles: a span's id.
        assert (root, child) == (0, 1)
        spans = tracer.spans()
        assert [span.name for span in spans] == ["sdk.read", "cluster.read"]
        assert spans[1].parent_id == spans[0].span_id == root
        assert spans[0].parent_id is None
        assert spans[1].attrs == {"shard": 1}
        # The completed root can be finished exactly once.
        assert tracer.finish_root(1.5, 0.25, "op", "read") == root
        assert tracer.finish_root(2.5, 0.5, "op", "read") is None
        finished = tracer.spans()[0]
        assert (finished.end, finished.cost, finished.attrs) == (1.5, 0.25, {"op": "read"})

    def test_events_require_an_open_span(self):
        tracer = TraceRecorder(FakeClock())
        assert tracer.event("router.route", "shard", 0) is None
        assert len(tracer) == 0
        root = tracer.begin("sdk.read")
        event = tracer.event("router.route", "shard", 0)
        tracer.end(root)
        recorded = tracer.spans()[event]
        assert recorded.parent_id == root
        assert recorded.attrs["shard"] == 0

    def test_up_to_three_attributes_and_last_write_wins(self):
        tracer = TraceRecorder(FakeClock())
        root = tracer.begin("sdk.query")
        tracer.event("replica.select", "node", "s0:n1", "candidates", 3, "level", "causal")
        tracer.event("sdk.fetch", "level", "cdn", "level", "origin")
        tracer.end(root, "key", "k", "level", "cdn")
        tracer.finish_root(1.0, 1.0, "level", "origin")
        rows = tracer.span_tuples()
        assert rows[0][6] == (("key", "k"), ("level", "origin"))
        assert rows[1][6] == (("candidates", 3), ("level", "causal"), ("node", "s0:n1"))
        assert rows[2][6] == (("level", "origin"),)

    def test_unbalanced_end_raises(self):
        tracer = TraceRecorder(FakeClock())
        with pytest.raises(RuntimeError):
            tracer.end()

    def test_end_with_the_wrong_handle_raises(self):
        tracer = TraceRecorder(FakeClock())
        root = tracer.begin("sdk.read")
        child = tracer.begin("cluster.read")
        with pytest.raises(RuntimeError, match="innermost open span"):
            tracer.end(root)
        with pytest.raises(RuntimeError, match="innermost open span"):
            tracer.end(None)
        # The failed calls closed nothing: the balanced sequence still works.
        tracer.end(child)
        tracer.end(root)
        assert len(tracer) == 2

    def test_unsampled_requests_close_with_their_none_handle(self):
        tracer = TraceRecorder(FakeClock(), sample_every=2)
        tracer.end(tracer.begin("sdk.read"))  # request 0: sampled
        skipped = tracer.begin("sdk.read")  # request 1: not sampled
        assert skipped is None
        with pytest.raises(RuntimeError, match="innermost open span"):
            tracer.end(0)  # a stale handle must not pop the placeholder
        tracer.end(skipped)
        assert len(tracer) == 1

    def test_sampling_every_other_request(self):
        tracer = TraceRecorder(FakeClock(), sample_every=2)
        for index in range(4):
            root = tracer.begin("sdk.read")
            tracer.event("sdk.fetch")
            tracer.end(root)
            # Priced like the simulator does; a no-op for skipped requests.
            tracer.cost("net.client", 0.001)
            tracer.finish_root(0.001, 0.001, "op", "read")
            # Sampled requests return a handle, skipped ones None -- but the
            # stack stays balanced either way.
            assert (root is not None) == (index % 2 == 0)
        names = [span.name for span in tracer.spans()]
        assert names == ["sdk.read", "sdk.fetch", "net.client"] * 2

    def test_cost_children_hang_off_the_completed_root(self):
        clock = FakeClock(5.0)
        tracer = TraceRecorder(clock)
        tracer.cost("net.origin", 0.15)  # no completed root yet: dropped
        root = tracer.begin("sdk.read")
        tracer.end(root)
        tracer.cost("net.origin", 0.15)
        tracer.finish_root(5.15, 0.15, "op", "read")
        _root, part = tracer.spans()
        assert part.parent_id == root
        assert part.cost == 0.15
        # A cost span happens at its parent's (priced) end.
        assert part.start == part.end == 5.15

    def test_span_tuples_are_the_spans_rows(self):
        tracer = TraceRecorder(FakeClock())
        root = tracer.begin("sdk.read")
        tracer.end(root, "key", "k")
        assert [row(span) for span in tracer.spans()] == list(tracer.span_tuples())

class TestMetricsRegistry:
    def test_rows_are_read_from_live_counters(self):
        counter = Counter()
        latency = Histogram()
        registry = MetricsRegistry(
            lambda: [
                ("ops_total", (("level", "cdn"), ("op", "read")), counter.get("cdn_read")),
                ("latency", (("op", "read"),), latency),
            ]
        )
        assert registry.state()[:3] == ((), (), ())  # zero rows are not exported
        counter.counts["cdn_read"] += 2
        latency.record_many([0.5])
        counters, gauges, histograms, _series = registry.state()
        assert counters == (("ops_total", (("level", "cdn"), ("op", "read")), 2),)
        assert gauges == ()
        assert histograms == (("latency", (("op", "read"),), (0.5,)),)

    def test_series_snapshots(self):
        counter = Counter()
        registry = MetricsRegistry(lambda: [("ops", (), counter.get("ops"))], interval=1.0)
        counter.counts["ops"] += 1
        registry.sample(1.0)
        counter.counts["ops"] += 1
        registry.sample(2.0)
        series = registry.state()[3]
        assert [point[0] for point in series] == [1.0, 2.0]
        assert series[0][1] == (("ops", (), 1),)
        assert series[1][1] == (("ops", (), 2),)

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan")])
    def test_a_non_positive_or_nan_interval_is_rejected(self, interval):
        with pytest.raises(ValueError):
            MetricsRegistry(tuple, interval=interval)

class TestExport:
    def _state(self):
        latency = Histogram()
        latency.record_many([0.25, 0.75])
        registry = MetricsRegistry(
            lambda: [
                ("requests_total", (("op", "read"),), 7),
                ("latency_seconds", (("op", "read"),), latency),
            ]
        )
        registry.sample(1.0)
        return registry.state()

    def test_prometheus_text(self):
        text = prometheus_text(self._state())
        assert '# TYPE requests_total counter' in text
        assert 'requests_total{op="read"} 7' in text
        assert 'latency_seconds_count{op="read"} 2' in text
        assert 'latency_seconds_sum{op="read"} 1' in text.replace(".0", "")

    def test_json_artifact_and_write(self, tmp_path):
        artifact = json_artifact(self._state(), trace_rows=(), meta={"seed": 13})
        assert artifact["meta"]["seed"] == 13
        prom_path, json_path = write_artifacts(tmp_path, self._state())
        assert prom_path.read_text().startswith("# TYPE")
        loaded = json.loads(json_path.read_text())
        assert set(loaded) == {"meta", "metrics", "trace"}


def _request(tracer, name, parts, level="origin"):
    """One priced request, written the way the SDK + simulator write it."""
    root = tracer.begin(name)
    tracer.end(root, "level", level)
    total = 0.0
    for stage, cost in parts:
        tracer.cost(stage, cost)
        total += cost
    tracer.finish_root(total, total, "op", name.partition(".")[2])
    return root


class TestAnalyze:
    def _spans(self):
        tracer = TraceRecorder(FakeClock())
        _request(tracer, "sdk.read", [("net.origin", 0.15), ("queue.origin", 0.05)])
        _request(tracer, "sdk.read", [("net.cdn", 0.01)], level="cdn")
        _request(tracer, "sdk.query", [("net.origin", 0.3), ("gray.slow", 0.9)])
        return tracer.spans()

    def test_roots_and_attribution(self):
        spans = self._spans()
        roots = request_roots(spans)
        assert len(roots) == 3
        summary = latency_attribution(spans)
        assert summary["requests"] == 3
        assert summary["min_coverage"] == pytest.approx(1.0)
        assert summary["stages"][0][0] == "gray.slow"

    def test_coverage_with_negative_compensation(self):
        tracer = TraceRecorder(FakeClock())
        root_id = _request(
            tracer, "sdk.read", [("net.origin", 0.2), ("resilience.fast_fail", -0.2)]
        )
        by_id, children = index_spans(tracer.spans())
        root = by_id[root_id]
        # Zero total latency: trivially fully covered.
        assert root.cost == 0.0
        assert coverage(root, children) == 1.0

    def test_critical_path_and_percentiles(self):
        spans = self._spans()
        _by_id, children = index_spans(spans)
        roots = request_roots(spans)
        p99 = percentile_root(roots, 0.99)
        assert p99.name == "sdk.query"
        top = critical_path(p99, children, k=1)
        assert top == [("gray.slow", 0.9)]
        assert percentile_root([], 0.5) is None
        with pytest.raises(ValueError):
            percentile_root(roots, 1.5)

    def test_renderers(self):
        spans = self._spans()
        _by_id, children = index_spans(spans)
        roots = request_roots(spans)
        waterfall = render_waterfall(roots[2], children)
        assert "gray.slow" in waterfall and "#" in waterfall
        report = render_report(spans)
        assert "latency attribution: 3 sampled requests" in report
        assert "top stages at p99" in report
