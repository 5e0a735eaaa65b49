"""Per-record write-rate sampling.

For each database record, Quaestor estimates (through sampling) the rate of
incoming writes ``lambda_w`` in some time window.  The sampler keeps a bounded
history of recent write timestamps per key (a plain list trimmed to the
newest ``max_samples_per_key``, a few dozen bytes for a key written once) and
derives the arrival rate from it; keys that have never been written fall back to a configurable default
rate, which corresponds to an optimistic initial TTL.

Two estimation modes are supported (the TTL bake-off compares them through the
``quaestor`` vs ``quaestor-window`` estimator specs):

* ``"window"`` (default) -- arrivals are counted over the span the key has
  actually been observed, capped at the window.  A *single* arrival carries no
  rate information and keeps the default-rate prior, and sub-second bursts are
  rate-capped at ``MIN_SPAN`` so a batch of writes sharing one timestamp
  cannot produce a quasi-infinite rate.  This mode is monotone: compressing a
  key's write history towards ``now`` (i.e. writing faster) never lowers the
  estimated rate.
* ``"span"`` -- the number of in-window samples divided by the time since the
  oldest in-window sample.  Scale-free (no absolute-time prior or floor), at
  the price of a first-observation spike: a lone write observed just before
  the estimate makes the key look quasi-infinitely hot, collapsing its TTL to
  the lower bound.  The full-size bake-off showed this fresh-biased
  behaviour *wins* under the simulator's compressed virtual clock, so the
  default ``quaestor`` estimator spec keeps it; the windowed contracts above
  remain available via ``quaestor-window``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.ttl.base import TTLBounds, TTLEstimator

#: Supported rate-estimation modes.
ESTIMATION_MODES = ("window", "span")

#: Shortest effective observation span (seconds): bursts of writes packed
#: into less than this span are rate-capped at ``arrivals / MIN_SPAN``.
MIN_SPAN = 1.0


class WriteRateSampler:
    """Sliding-window estimator of per-key write arrival rates."""

    def __init__(
        self,
        window: float = 600.0,
        max_samples_per_key: int = 50,
        default_rate: float = 1.0 / 600.0,
        estimation: str = "window",
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if max_samples_per_key <= 1:
            raise ValueError("max_samples_per_key must be at least 2")
        if default_rate <= 0:
            raise ValueError("default_rate must be positive")
        if estimation not in ESTIMATION_MODES:
            raise ValueError(
                f"unknown estimation mode: {estimation!r} (known: {ESTIMATION_MODES})"
            )
        self.window = window
        self.max_samples_per_key = max_samples_per_key
        self.default_rate = default_rate
        self.estimation = estimation
        self._samples: Dict[str, List[float]] = {}

    # -- recording -------------------------------------------------------------------

    def observe_write(self, key: str, timestamp: float) -> None:
        """Record a write to ``key`` at ``timestamp``."""
        samples = self._samples.get(key)
        if samples is None:
            self._samples[key] = [timestamp]
        else:
            samples.append(timestamp)
            # Keep the newest samples; a no-op until the bound is passed.
            del samples[: -self.max_samples_per_key]

    # -- estimation --------------------------------------------------------------------

    def write_rate(self, key: str, now: float) -> float:
        """Estimated writes per second for ``key`` (``default_rate`` if unknown).

        Keys whose last write left the sliding window decay back towards the
        default rate.  See the module docstring for the two estimation modes.
        """
        samples = self._samples.get(key)
        if not samples:
            return self.default_rate
        cutoff = now - self.window
        recent = [timestamp for timestamp in samples if timestamp >= cutoff]
        if not recent:
            return self.default_rate
        if self.estimation == "span":
            span = max(now - recent[0], 1e-9)
            return len(recent) / span
        arrivals = len(recent)
        if arrivals == 1:
            # One arrival is an existence proof, not a rate: keep the prior
            # instead of dividing by the (possibly zero) time since the write.
            return self.default_rate
        if len(samples) == self.max_samples_per_key:
            # History truncated by the per-key bound: the oldest kept sample
            # is not the start of observation, so count the arrivals *after*
            # it over the rolling tail span.
            return (arrivals - 1) / max(now - recent[0], MIN_SPAN)
        # Full history retained: count arrivals over the span the key has
        # been observed, capped at the window (samples[0] is the true first
        # write, so young hot keys are not diluted over the whole window).
        span = min(self.window, now - samples[0])
        return arrivals / max(span, MIN_SPAN)

    def mean_interarrival(self, key: str, now: float) -> float:
        """Mean time between writes (the reciprocal of the write rate)."""
        return 1.0 / self.write_rate(key, now)

    def __repr__(self) -> str:
        return (
            f"WriteRateSampler(window={self.window}, estimation={self.estimation!r}, "
            f"tracked={len(self._samples)})"
        )


class WriteRateTTLEstimator(TTLEstimator):
    """TTL = observed mean inter-arrival time (``1 / lambda``).

    The simplest sampling-based estimator: a record's TTL is the expected
    time to its next write under the sampled rate, and a query result expires
    when the *first* member is written, so its TTL is the reciprocal of the
    summed member rates.  Unlike the Poisson-quantile estimators there is no
    risk knob: the estimate is the distribution's mean, which under an
    exponential model is the 63rd percentile of the time to the next write.
    """

    def __init__(
        self,
        bounds: Optional[TTLBounds] = None,
        sampler: Optional[WriteRateSampler] = None,
    ) -> None:
        super().__init__(bounds)
        self.sampler = sampler if sampler is not None else WriteRateSampler()

    def estimate_record(self, record_key: str, now: float) -> float:
        return self.bounds.clamp(self.sampler.mean_interarrival(record_key, now))

    def estimate_query(
        self, query_key: str, member_record_keys: Sequence[str], now: float
    ) -> float:
        if member_record_keys:
            rate = sum(self.sampler.write_rate(key, now) for key in member_record_keys)
        else:
            rate = self.sampler.default_rate
        return self.bounds.clamp(1.0 / rate)

    def observe_write(self, record_key: str, timestamp: float) -> None:
        self.sampler.observe_write(record_key, timestamp)
