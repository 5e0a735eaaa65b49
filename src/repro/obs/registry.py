"""Labeled metrics registry with deterministic time-series snapshots.

Unlike ``repro.metrics.Counter`` (a flat name→int map used by the benchmark
harness), the registry keys every instrument by ``(name, label-tuple)`` —
the Prometheus data model — and can snapshot the counter/gauge state onto a
sim-time epoch grid so a metric can be watched *evolving* during a scenario.

Three instrument kinds, each handed out as a *bound child* of one label set:

* **counter** (:class:`BoundCounter`) — monotone; ``inc`` rejects negative
  amounts (decrements are a modelling bug for counters — use a gauge).
* **gauge** (:class:`Gauge`) — a level that may go up *and* down: queue
  depths, open breakers, cache residency.
* **histogram** — the flat ``list`` of raw samples itself (deterministically
  merged across partitions by concatenation in partition order); exposition
  derives count/sum/quantiles.

**Write path.**  ``registry.counter(name, **labels)`` / ``gauge`` /
``histogram`` resolve the label set -- the only place a label ``dict`` is
built and sorted -- and return the child.  A publishing site keeps its child
(or a :meth:`MetricsRegistry.counters` / ``histograms`` mapping that binds
each label-value combination on first use), so ``counter.inc()`` /
``samples.append(value)`` in a run loop touch one number or append one float
and allocate nothing.  A
child shows in ``state()`` from the moment it is resolved; sites resolve
lazily, so a label set that never occurred is not exported as zero.

Determinism contract: publishing draws no RNG and reads nothing but the
values handed to it plus explicitly supplied timestamps, so enabling the
registry cannot change any seeded summary.  ``state()`` is a picklable,
canonically-sorted tuple — the surface ``ParallelSimulator`` ships across
the spawn boundary and ``merge_states`` folds in partition-id order.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = [
    "BoundCounter",
    "Gauge",
    "MetricsRegistry",
    "merge_states",
    "canonical_metrics_bytes",
]

LabelKey = Tuple[Tuple[str, object], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted(labels.items()))


class BoundCounter:
    """One label set of a monotone counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Increment; negative amounts are rejected."""
        if amount < 0:
            raise ValueError(
                f"counters are monotone and cannot be decremented (amount={amount!r}); "
                "use a Gauge for values that fall"
            )
        self.value += amount


class Gauge:
    """A value that may move in either direction.

    This is the explicit home for decrements: ``repro.metrics.Counter`` (and
    the registry's counters) are monotone and refuse to go below zero, so
    anything that legitimately falls — in-flight requests, open circuit
    breakers, backlog depth — is modelled as a gauge instead.
    """

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> float:
        """Apply a (possibly negative) delta and return the new level."""
        self.value += delta
        return self.value


class _BoundByLabelValues(dict):
    """Children of one instrument, bound on first use; indexed by the one label's
    value, or by the tuple of values in ``label_names`` order when there are several."""

    __slots__ = ("_bind", "_name", "_label_names")

    def __init__(self, bind: Callable, name: str, label_names: Tuple[str, ...]) -> None:
        super().__init__()
        self._bind = bind
        self._name = name
        self._label_names = label_names

    def __missing__(self, values):
        as_tuple = values if len(self._label_names) > 1 else (values,)
        child = self[values] = self._bind(self._name, **dict(zip(self._label_names, as_tuple)))
        return child


class MetricsRegistry:
    """Counters, gauges and histograms keyed by ``(name, label-tuple)``."""

    __slots__ = ("interval", "_counters", "_gauges", "_histograms", "_series")

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0.0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self._counters: Dict[Tuple[str, LabelKey], BoundCounter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], List[float]] = {}
        self._series: List[tuple] = []

    # ------------------------------------------------------------------ write
    @staticmethod
    def _child(children: dict, kind: type, name: str, labels: dict):
        key = (name, _label_key(labels))
        child = children.get(key)
        if child is None:
            child = children[key] = kind()
        return child

    def counter(self, name: str, **labels) -> BoundCounter:
        """The counter for this label set, created at zero on first use."""
        return self._child(self._counters, BoundCounter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge for this label set, created at zero on first use."""
        return self._child(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels) -> List[float]:
        """This label set's flat sample list (``append`` observes), created on first use."""
        return self._child(self._histograms, list, name, labels)

    def counters(self, name: str, *label_names: str) -> Dict[object, BoundCounter]:
        """``mapping[label values] -> BoundCounter``, each bound on first use."""
        return _BoundByLabelValues(self.counter, name, label_names)

    def histograms(self, name: str, *label_names: str) -> Dict[object, List[float]]:
        """``mapping[label values] -> sample list``, each bound on first use."""
        return _BoundByLabelValues(self.histogram, name, label_names)

    def sample(self, timestamp: float) -> None:
        """Snapshot counters and gauges onto the time series at ``timestamp``.

        The caller supplies the timestamp (an epoch-grid boundary or the
        run's stop time) so snapshots are reproducible and per-partition
        grids line up at merge time.
        """
        counters = tuple(
            sorted(
                (name, labels, counter.value) for (name, labels), counter in self._counters.items()
            )
        )
        gauges = tuple(
            sorted((name, labels, gauge.value) for (name, labels), gauge in self._gauges.items())
        )
        self._series.append((timestamp, counters, gauges))

    # ------------------------------------------------------------------- read
    def series(self) -> Tuple[tuple, ...]:
        return tuple(self._series)

    def state(self) -> tuple:
        """Picklable, canonically-sorted snapshot of the whole registry.

        Shape: ``(counters, gauges, histograms, series)`` where the first
        three are ``(name, label_tuple, value-or-samples)`` rows sorted by
        key and ``series`` is the snapshot list in record order.
        """
        counters = tuple(
            sorted(
                (name, labels, counter.value) for (name, labels), counter in self._counters.items()
            )
        )
        gauges = tuple(
            sorted((name, labels, gauge.value) for (name, labels), gauge in self._gauges.items())
        )
        histograms = tuple(
            sorted(
                (name, labels, tuple(samples))
                for (name, labels), samples in self._histograms.items()
            )
        )
        return (counters, gauges, histograms, tuple(self._series))


def merge_states(states: Sequence[tuple]) -> tuple:
    """Fold per-partition ``MetricsRegistry.state()`` tuples, in order.

    Counters and gauges sum; histogram sample lists concatenate in
    partition-id order; time-series snapshots group by timestamp (the epoch
    grid is global, so partitions that crossed the same boundary sum there)
    and sort by time.  Folding in partition order makes the merged state
    worker-count invariant and byte-identical to the serial oracle.
    """
    counters: Dict[tuple, float] = {}
    gauges: Dict[tuple, float] = {}
    histograms: Dict[tuple, List[float]] = {}
    series: Dict[float, Tuple[Dict[tuple, float], Dict[tuple, float]]] = {}
    for state in states:
        state_counters, state_gauges, state_histograms, state_series = state
        for name, labels, value in state_counters:
            key = (name, labels)
            counters[key] = counters.get(key, 0) + value
        for name, labels, value in state_gauges:
            key = (name, labels)
            gauges[key] = gauges.get(key, 0) + value
        for name, labels, samples in state_histograms:
            histograms.setdefault((name, labels), []).extend(samples)
        for timestamp, snap_counters, snap_gauges in state_series:
            counter_bucket, gauge_bucket = series.setdefault(timestamp, ({}, {}))
            for name, labels, value in snap_counters:
                key = (name, labels)
                counter_bucket[key] = counter_bucket.get(key, 0) + value
            for name, labels, value in snap_gauges:
                key = (name, labels)
                gauge_bucket[key] = gauge_bucket.get(key, 0) + value
    merged_series = tuple(
        (
            timestamp,
            tuple(sorted((name, labels, value) for (name, labels), value in buckets[0].items())),
            tuple(sorted((name, labels, value) for (name, labels), value in buckets[1].items())),
        )
        for timestamp, buckets in sorted(series.items())
    )
    return (
        tuple(sorted((name, labels, value) for (name, labels), value in counters.items())),
        tuple(sorted((name, labels, value) for (name, labels), value in gauges.items())),
        tuple(
            sorted((name, labels, tuple(samples)) for (name, labels), samples in histograms.items())
        ),
        merged_series,
    )


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
