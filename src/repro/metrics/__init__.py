"""Measurement utilities: the counters and histograms everything is counted in."""

from __future__ import annotations

from repro.metrics.counters import Counter
from repro.metrics.histogram import Histogram

__all__ = [
    "Counter",
    "Histogram",
]
