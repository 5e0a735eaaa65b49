"""Latency/value histograms with percentile queries."""

from __future__ import annotations

import math
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Histogram:
    """A value recorder supporting mean, percentiles and fixed-width buckets.

    All recorded samples are retained (experiments in this reproduction record
    at most a few million samples), which keeps percentile computation exact
    rather than approximate.  They are kept as C doubles (``array("d")``,
    8 bytes a sample rather than a float object and a list slot): a double
    holds a Python float exactly, so every statistic is what a list of the
    same floats gives, summed in the same order.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples = array("d")
        self._sorted: Optional[List[float]] = None

    # -- recording ---------------------------------------------------------------

    def record_many(self, values: Iterable[float]) -> None:
        """Add many samples at once."""
        self._samples.extend(float(value) for value in values)
        self._sorted = None

    def appender(self) -> Callable[[float], None]:
        """One-sample recording for a hot loop that passes floats: the samples'
        own ``append`` (the sorted cache is checked against the sample count)."""
        return self._samples.append

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's samples into this one."""
        self._samples.extend(other._samples)
        self._sorted = None

    # -- statistics ---------------------------------------------------------------

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    @property
    def maximum(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def percentile(self, fraction: float) -> float:
        """Exact percentile using linear interpolation between order statistics."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("percentile fraction must lie in [0, 1]")
        if not self._samples:
            return 0.0
        ordered = self._ordered()
        if len(ordered) == 1:
            return ordered[0]
        rank = fraction * (len(ordered) - 1)
        lower = int(math.floor(rank))
        upper = int(math.ceil(rank))
        if lower == upper:
            return ordered[lower]
        weight = rank - lower
        return ordered[lower] * (1.0 - weight) + ordered[upper] * weight

    def cdf(self, points: Optional[Sequence[float]] = None) -> List[Tuple[float, float]]:
        """Empirical CDF as (value, cumulative probability) pairs.

        When ``points`` is omitted, the CDF is evaluated at every distinct
        sample value (suitable for plotting, e.g. Figure 11).
        """
        if not self._samples:
            return []
        ordered = self._ordered()
        total = len(ordered)
        if points is None:
            result: List[Tuple[float, float]] = []
            for index, value in enumerate(ordered, start=1):
                if result and result[-1][0] == value:
                    result[-1] = (value, index / total)
                else:
                    result.append((value, index / total))
            return result
        import bisect

        return [(point, bisect.bisect_right(ordered, point) / total) for point in points]

    def buckets(self, width: float, maximum: Optional[float] = None) -> Dict[float, int]:
        """Fixed-width bucket counts keyed by bucket lower bound (Figure 8f).

        With a ``maximum``, every sample at or beyond it is folded into the
        last bucket that still starts *below* the cap, so no returned lower
        bound ever reaches ``maximum``.  A cap that is not a multiple of
        ``width`` keeps its final partial bucket (e.g. ``width=1.0,
        maximum=10.5`` tops out at bucket ``10.0``).
        """
        if width <= 0:
            raise ValueError("bucket width must be positive")
        counts: Dict[float, int] = {}
        cap = maximum if maximum is not None else (self.maximum + width)
        # The overflow bucket: the largest multiple of width strictly below
        # the cap.  Without it, a sample equal to the cap would floor into a
        # bucket *starting at* the cap -- outside the requested range.
        last_bucket = math.floor(cap / width) * width
        if last_bucket >= cap:
            last_bucket = max(0.0, last_bucket - width)
        for value in self._samples:
            bucket = math.floor(min(value, cap) / width) * width
            bucket = min(bucket, last_bucket)
            counts[bucket] = counts.get(bucket, 0) + 1
        return dict(sorted(counts.items()))

    def samples(self) -> List[float]:
        """A copy of the raw samples."""
        return list(self._samples)

    # -- internals --------------------------------------------------------------------

    def _ordered(self) -> List[float]:
        ordered = self._sorted
        if ordered is None or len(ordered) != len(self._samples):
            ordered = self._sorted = sorted(self._samples)
        return ordered

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:
        return (
            f"Histogram(name={self.name!r}, count={self.count}, mean={self.mean:.3f}, "
            f"p99={self.percentile(0.99):.3f})"
        )
