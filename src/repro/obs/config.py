"""Configuration knob for the observability layer.

``ObservabilityConfig`` is carried on :class:`repro.simulation.SimulationConfig`
(``observability=``) the same way ``record_history`` carries the consistency
recorder: ``None`` (the default) means the layer is completely off and the
request path pays nothing beyond a single ``is None`` check per site.

The config is a frozen, picklable dataclass so it survives the spawn-based
``ParallelSimulator`` worker boundary unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ObservabilityConfig"]


def check_sample_every(sample_every) -> int:
    """``sample_every`` if it is an int >= 1 (a bool is not), else ``ValueError``."""
    if isinstance(sample_every, bool) or not isinstance(sample_every, int) or sample_every < 1:
        raise ValueError(f"sample_every must be an int >= 1, got {sample_every!r}")
    return sample_every


def check_interval(name: str, interval) -> float:
    """``interval`` if it is positive (``inf``: only the closing snapshot),
    else ``ValueError`` -- NaN included, which would never sample."""
    if not interval > 0.0:
        raise ValueError(f"{name} must be positive, got {interval!r}")
    return interval


@dataclass(frozen=True)
class ObservabilityConfig:
    """What to record during a simulation run.

    Determinism contract (shared with ``repro.verify``): the tracing and
    metrics code draws **zero** random numbers and only *reads* the virtual
    clock, so enabling it cannot change any seeded summary value.

    :param trace: record request spans (``TraceRecorder``).
    :param metrics: export the run's counters as labeled rows with a
        sim-time series (``MetricsRegistry``).
    :param sample_every: record every Nth request's span tree (1 = all).
        Sampling is counter-based — ``request_index % sample_every == 0`` —
        never random, so the sampled set is identical run-to-run.
    :param metrics_interval: sim-seconds between registry time-series
        snapshots.  Snapshots land on the global epoch grid (multiples of
        the interval) so per-partition series merge exactly; ``inf`` keeps
        only the closing snapshot.
    """

    trace: bool = True
    metrics: bool = True
    sample_every: int = 1
    metrics_interval: float = 1.0

    def __post_init__(self) -> None:
        check_sample_every(self.sample_every)
        check_interval("metrics_interval", self.metrics_interval)

    @classmethod
    def full(cls) -> "ObservabilityConfig":
        """Trace every request and snapshot metrics every sim-second."""
        return cls()
