"""Deterministic tracing & telemetry for the Quaestor reproduction.

``repro.obs`` makes a simulated deployment observable from the inside
without perturbing it: request spans on the virtual clock, a labeled
metrics registry with sim-time series, Prometheus-style exposition, a JSON
artifact dump, and a trace analyzer that attributes each request's latency
to named stages (which tier dominated p99?).

Determinism contract (the ``repro.verify`` recording playbook): the layer
draws **zero** random numbers, reads nothing but the virtual clock, and is
off by default (``SimulationConfig.observability=None``), so enabling it
cannot change any seeded summary value.

Entry points:

* ``ObservabilityConfig`` — the ``SimulationConfig.observability`` knob.
* ``TraceRecorder`` / ``Span`` — the tracing subsystem.
* ``MetricsRegistry`` — labeled rows read from the run's own counters
  (``repro.metrics``), with a sim-time series; it has no write path.
* ``repro.obs.analyze`` — critical path, attribution, waterfall.
* ``python -m repro.obs`` — seeded scenario + artifacts + attribution report.
"""

from .analyze import (
    coverage,
    critical_path,
    index_spans,
    latency_attribution,
    percentile_root,
    render_report,
    render_waterfall,
    request_roots,
    stage_costs,
)
from .config import ObservabilityConfig
from .export import json_artifact, prometheus_text, write_artifacts
from .registry import MetricsRegistry, canonical_metrics_bytes
from .trace import Span, TraceRecorder, canonical_trace_bytes

__all__ = [
    "ObservabilityConfig",
    "Span",
    "TraceRecorder",
    "canonical_trace_bytes",
    "MetricsRegistry",
    "canonical_metrics_bytes",
    "prometheus_text",
    "json_artifact",
    "write_artifacts",
    "index_spans",
    "request_roots",
    "stage_costs",
    "critical_path",
    "coverage",
    "percentile_root",
    "latency_attribution",
    "render_waterfall",
    "render_report",
]
