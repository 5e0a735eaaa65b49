"""Labeled metrics: a read-only view over the run's counters, with sim-time series.

Everything a run counts lives in one place: ``repro.metrics.Counter`` tallies
and ``repro.metrics.Histogram`` sample lists, kept by the simulator, the
servers, the cluster and the resilience runtime whether or not metrics are
on.  The registry keeps no numbers of its own.  It is built with one *row
function* that reads those live counters and returns
``(name, label-tuple, value)`` rows -- the Prometheus data model -- where a
value is a count or a :class:`~repro.metrics.Histogram`.  ``sample`` reads
the count rows onto a sim-time epoch grid so a metric can be watched
*evolving* during a scenario; ``state`` reads every row once more at the end.

A row whose value is zero (or whose histogram is empty) is omitted, so a
label set that never occurred is not exported.  There is no write path: a
publishing site counts into its own ``Counter``, which costs the same with
metrics on or off.  The ``gauges`` slot of the state is always empty; it is
kept so the state and its bytes keep their shape.

Determinism contract: reading draws no RNG and reads nothing but the
counters plus explicitly supplied timestamps, so enabling the registry
cannot change any seeded summary.  ``state()`` is a picklable,
canonically-sorted tuple, the surface ``python -m repro.obs`` exports.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, List, Tuple

from repro.metrics import Histogram

from .config import check_interval

__all__ = [
    "MetricsRegistry",
    "canonical_metrics_bytes",
]

#: ``(name, ((label, value), ...), count-or-Histogram)``, labels sorted by name.
Row = Tuple[str, Tuple[Tuple[str, object], ...], object]


class MetricsRegistry:
    """Labeled rows read from live counters, plus their sampled time series."""

    __slots__ = ("interval", "_rows", "_series")

    def __init__(self, rows: Callable[[], Iterable[Row]], interval: float = 1.0) -> None:
        self.interval = check_interval("interval", interval)
        self._rows = rows
        self._series: List[tuple] = []

    def _counters(self) -> tuple:
        return tuple(
            sorted(
                row for row in self._rows() if not isinstance(row[2], Histogram) and row[2]
            )
        )

    def sample(self, timestamp: float) -> None:
        """Snapshot the counters onto the time series at ``timestamp``.

        The caller supplies the timestamp (an epoch-grid boundary or the
        run's stop time) so snapshots are reproducible.
        """
        self._series.append((timestamp, self._counters(), ()))

    def state(self) -> tuple:
        """Picklable, canonically-sorted snapshot of the whole registry.

        Shape: ``(counters, gauges, histograms, series)`` where the first
        three are ``(name, label_tuple, value-or-samples)`` rows sorted by
        key (``gauges`` is always empty) and ``series`` is the snapshot
        list in record order.
        """
        histograms = tuple(
            sorted(
                (name, labels, tuple(value.samples()))
                for name, labels, value in self._rows()
                if isinstance(value, Histogram) and value
            )
        )
        return (self._counters(), (), histograms, tuple(self._series))


def _canonical(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return [_canonical(item) for item in value]
    return value


def canonical_metrics_bytes(state: tuple) -> bytes:
    """Byte-exact wire form of a registry state (floats via ``repr``)."""
    counters, gauges, histograms, series = state
    payload = {
        "counters": _canonical(counters),
        "gauges": _canonical(gauges),
        "histograms": _canonical(histograms),
        "series": _canonical(series),
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("ascii")
