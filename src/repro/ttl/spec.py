"""Named TTL-estimator registry and the ``TTLEstimatorSpec`` config knob.

Every estimator family ships behind a stable name so a
:class:`~repro.core.config.QuaestorConfig` (and therefore a
:class:`~repro.simulation.SimulationConfig`) can select one declaratively;
the TTL ablation (:mod:`repro.benchmarks.ablations`) compares them:

========== =====================================================================
name        estimator
========== =====================================================================
static      :class:`~repro.ttl.static.StaticTTLEstimator` -- one fixed TTL
alex        :class:`~repro.ttl.alex.AlexTTLEstimator` -- % of time since change
quaestor    :class:`~repro.ttl.estimator.QuaestorTTLEstimator` -- Poisson + EWMA
========== =====================================================================

``quaestor`` is the paper's estimator (Section 4.2) and the default; it runs
the write-rate sampler in ``span`` mode (see :mod:`repro.ttl.write_rate`).
Seeded simulator summaries under the default spec are pinned value-identical
by ``tests/simulation/test_golden_summary.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.ttl.alex import AlexTTLEstimator
from repro.ttl.base import TTLBounds, TTLEstimator
from repro.ttl.estimator import QuaestorTTLEstimator
from repro.ttl.static import StaticTTLEstimator
from repro.ttl.write_rate import WriteRateSampler

#: The paper's dual strategy, on the write-rate sampler's ``span`` mode.
DEFAULT_ESTIMATOR = "quaestor"


def _build_static(params, bounds):
    return StaticTTLEstimator(ttl=float(params.get("ttl", 60.0)), bounds=bounds)


def _build_alex(params, bounds):
    return AlexTTLEstimator(
        percentage=float(params.get("percentage", 0.2)),
        cap=float(params.get("cap", 300.0)),
        bounds=bounds,
    )


def _build_quaestor(params, bounds):
    return QuaestorTTLEstimator(
        quantile=float(params.get("quantile", 0.5)),
        alpha=float(params.get("alpha", 0.7)),
        bounds=bounds,
        sampler=WriteRateSampler(
            window=float(params.get("window", 600.0)),
            max_samples_per_key=int(params.get("max_samples_per_key", 50)),
            default_rate=float(params.get("default_rate", 1.0 / 600.0)),
            estimation="span",
        ),
    )


_BUILDERS: Dict[str, Callable[..., TTLEstimator]] = {
    "static": _build_static,
    "alex": _build_alex,
    "quaestor": _build_quaestor,
}

#: Every registered estimator name.
ESTIMATOR_NAMES: Tuple[str, ...] = tuple(_BUILDERS)


@dataclass(frozen=True)
class TTLEstimatorSpec:
    """Declarative selection of a TTL estimator by registry name.

    ``params`` holds estimator-specific overrides as a sorted tuple of
    ``(name, value)`` pairs so the spec stays hashable (use :meth:`of` rather
    than spelling the tuple out).  Parameters that a family does not consume
    are ignored.  The spec is the one way to set the ``quaestor`` family's
    Poisson ``quantile`` (default 0.5) and EWMA ``alpha`` (default 0.7); the
    estimator rejects an out-of-range value when it is built.
    """

    name: str = DEFAULT_ESTIMATOR
    params: Tuple[Tuple[str, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.name not in _BUILDERS:
            raise ValueError(
                f"unknown TTL estimator: {self.name!r} (known: {sorted(_BUILDERS)})"
            )
        if not isinstance(self.params, tuple):
            raise ValueError("params must be a tuple of (name, value) pairs; use .of()")

    @classmethod
    def of(cls, name: str, **params: float) -> "TTLEstimatorSpec":
        """Spec for ``name`` with keyword parameter overrides."""
        return cls(name=name, params=tuple(sorted(params.items())))

    def param_dict(self) -> Dict[str, float]:
        return dict(self.params)

    def build(self, bounds: Optional[TTLBounds] = None) -> TTLEstimator:
        """Instantiate the selected estimator."""
        return _BUILDERS[self.name](self.param_dict(), bounds)
