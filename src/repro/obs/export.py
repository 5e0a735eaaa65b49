"""Exposition: Prometheus-style text format and a JSON artifact dump.

Both exporters consume the *state tuple* (``MetricsRegistry.state()``)
rather than a live registry, so a finished run's state can be exported long
after the run, as the CLI smoke artifacts are.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Tuple

from repro.metrics import Histogram

__all__ = ["prometheus_text", "json_artifact", "write_artifacts"]

#: Quantiles published for each histogram in the summary-style exposition.
QUANTILES = (0.5, 0.9, 0.99)


def _format_value(value) -> str:
    """Prometheus sample value: floats via ``repr`` (shortest round-trip)."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _format_labels(labels: tuple, extra: Tuple[Tuple[str, object], ...] = ()) -> str:
    pairs = tuple(labels) + tuple(extra)
    if not pairs:
        return ""
    rendered = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + rendered + "}"


def prometheus_text(state: tuple) -> str:
    """Render a registry state in the Prometheus text exposition format.

    Counters map directly; histograms are rendered summary-style
    (``_count``/``_sum`` plus ``quantile=`` samples derived from the raw
    sample lists).  Rows are emitted in sorted order so the text is as
    deterministic as the state it came from.
    """
    counters, _gauges, histograms, _series = state
    lines = []

    seen_types = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for name, labels, value in counters:
        type_line(name, "counter")
        lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")
    for name, labels, samples in histograms:
        type_line(name, "summary")
        histogram = Histogram()
        histogram.record_many(samples)
        for quantile in QUANTILES:
            value = histogram.percentile(quantile)
            lines.append(
                f"{name}{_format_labels(labels, (('quantile', quantile),))} "
                f"{_format_value(value)}"
            )
        lines.append(f"{name}_count{_format_labels(labels)} {histogram.count}")
        lines.append(f"{name}_sum{_format_labels(labels)} {_format_value(float(sum(samples)))}")
    return "\n".join(lines) + "\n"


def json_artifact(
    state: Optional[tuple],
    trace_rows: Iterable[tuple] = (),
    meta: Optional[dict] = None,
) -> dict:
    """A single JSON-serializable document with metrics, series and spans."""
    document = {"meta": dict(meta or {})}
    if state is not None:
        counters, _gauges, histograms, series = state
        document["metrics"] = {
            "counters": [
                {"name": name, "labels": dict(labels), "value": value}
                for name, labels, value in counters
            ],
            "gauges": [],
            "histograms": [
                {
                    "name": name,
                    "labels": dict(labels),
                    "count": len(samples),
                    "sum": sum(samples),
                    "samples": list(samples),
                }
                for name, labels, samples in histograms
            ],
            "series": [
                {
                    "timestamp": timestamp,
                    "counters": [
                        {"name": name, "labels": dict(labels), "value": value}
                        for name, labels, value in snap_counters
                    ],
                    "gauges": [],
                }
                for timestamp, snap_counters, _snap_gauges in series
            ],
        }
    document["trace"] = {
        "spans": [
            {
                "span_id": span_id,
                "parent_id": parent_id,
                "name": name,
                "start": start,
                "end": end,
                "cost": cost,
                "attrs": dict(attrs),
            }
            for span_id, parent_id, name, start, end, cost, attrs in trace_rows
        ]
    }
    return document


def write_artifacts(
    out_dir,
    state: Optional[tuple],
    trace_rows: Iterable[tuple] = (),
    meta: Optional[dict] = None,
) -> Tuple[Path, Path]:
    """Write ``metrics.prom`` and ``obs.json`` under ``out_dir``."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    prom_path = out_path / "metrics.prom"
    json_path = out_path / "obs.json"
    if state is not None:
        prom_path.write_text(prometheus_text(state), encoding="utf-8")
    else:
        prom_path.write_text("", encoding="utf-8")
    document = json_artifact(state, trace_rows, meta)
    json_path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return prom_path, json_path
