"""Named TTL-estimator registry and the ``TTLEstimatorSpec`` config knob.

Every estimator family ships behind a stable name so a
:class:`~repro.core.config.QuaestorConfig` (and therefore a
:class:`~repro.simulation.SimulationConfig`) can select one declaratively --
the TTL bake-off (:mod:`repro.ttl.bakeoff`) sweeps exactly this registry:

========== =====================================================================
name        estimator
========== =====================================================================
static      :class:`~repro.ttl.static.StaticTTLEstimator` -- one fixed TTL
alex        :class:`~repro.ttl.alex.AlexTTLEstimator` -- % of time since change
adaptive    :class:`~repro.ttl.adaptive.AdaptiveTTLEstimator` -- reset/increase
write-rate  :class:`~repro.ttl.write_rate.WriteRateTTLEstimator` -- mean 1/lambda
poisson     :class:`~repro.ttl.poisson.PoissonTTLEstimator` -- quantile, no EWMA
quaestor    :class:`~repro.ttl.estimator.QuaestorTTLEstimator` -- Poisson + EWMA
========== =====================================================================

(plus the ``quaestor-window`` variant described below)

One additional entry qualifies the dual strategy's write-rate sampler:
``quaestor-window`` runs it on the windowed sampler whose contracts the
property suite enforces (finite first-observation rate, zero-interval burst
floor -- see :mod:`repro.ttl.write_rate`).  The bake-off (``BENCH_ttl.json``)
confirmed the span-sampled dual strategy as the winner in every scenario, so
``quaestor`` keeps the span sampler and remains the default.  Seeded
simulator summaries under the default spec are pinned value-identical by
``tests/simulation/test_golden_summary.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.ttl.adaptive import AdaptiveTTLEstimator
from repro.ttl.alex import AlexTTLEstimator
from repro.ttl.base import TTLBounds, TTLEstimator
from repro.ttl.estimator import QuaestorTTLEstimator
from repro.ttl.poisson import PoissonTTLEstimator
from repro.ttl.static import StaticTTLEstimator
from repro.ttl.write_rate import WriteRateSampler, WriteRateTTLEstimator

#: The bake-off winner (``BENCH_ttl.json``): the paper's dual strategy on the
#: scale-free span sampler, which beat every challenger -- including its own
#: window-normalised variant (``quaestor-window``) -- in all three scenarios.
DEFAULT_ESTIMATOR = "quaestor"


def _sampler(params: Mapping[str, float], estimation: str) -> WriteRateSampler:
    return WriteRateSampler(
        window=float(params.get("window", 600.0)),
        max_samples_per_key=int(params.get("max_samples_per_key", 50)),
        default_rate=float(params.get("default_rate", 1.0 / 600.0)),
        estimation=estimation,
    )


def _build_static(params, bounds, quantile, alpha):
    return StaticTTLEstimator(ttl=float(params.get("ttl", 60.0)), bounds=bounds)


def _build_alex(params, bounds, quantile, alpha):
    return AlexTTLEstimator(
        percentage=float(params.get("percentage", 0.2)),
        cap=float(params.get("cap", 300.0)),
        bounds=bounds,
    )


def _build_adaptive(params, bounds, quantile, alpha):
    return AdaptiveTTLEstimator(
        minimum_ttl=float(params.get("minimum_ttl", 5.0)),
        increment=float(params.get("increment", 10.0)),
        bounds=bounds,
    )


def _build_write_rate(params, bounds, quantile, alpha):
    return WriteRateTTLEstimator(bounds=bounds, sampler=_sampler(params, "window"))


def _build_poisson(params, bounds, quantile, alpha):
    return PoissonTTLEstimator(
        quantile=float(params.get("quantile", quantile)),
        bounds=bounds,
        sampler=_sampler(params, "window"),
    )


def _build_quaestor(params, bounds, quantile, alpha):
    return QuaestorTTLEstimator(
        quantile=float(params.get("quantile", quantile)),
        alpha=float(params.get("alpha", alpha)),
        bounds=bounds,
        sampler=_sampler(params, "span"),
    )


def _build_quaestor_window(params, bounds, quantile, alpha):
    return QuaestorTTLEstimator(
        quantile=float(params.get("quantile", quantile)),
        alpha=float(params.get("alpha", alpha)),
        bounds=bounds,
        sampler=_sampler(params, "window"),
    )


_BUILDERS: Dict[str, Callable[..., TTLEstimator]] = {
    "static": _build_static,
    "alex": _build_alex,
    "adaptive": _build_adaptive,
    "write-rate": _build_write_rate,
    "poisson": _build_poisson,
    "quaestor": _build_quaestor,
    "quaestor-window": _build_quaestor_window,
}

#: Every registered estimator name (the bake-off's sweep axis).
ESTIMATOR_NAMES: Tuple[str, ...] = tuple(_BUILDERS)


@dataclass(frozen=True)
class TTLEstimatorSpec:
    """Declarative selection of a TTL estimator by registry name.

    ``params`` holds estimator-specific overrides as a sorted tuple of
    ``(name, value)`` pairs so the spec stays hashable (use :meth:`of` rather
    than spelling the tuple out).  Parameters that a family does not consume
    are ignored; ``quantile`` / ``alpha`` default to the owning
    :class:`~repro.core.config.QuaestorConfig`'s ``ttl_quantile`` /
    ``ewma_alpha`` fields when absent.
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

    def build(
        self,
        bounds: Optional[TTLBounds] = None,
        ttl_quantile: float = 0.5,
        ewma_alpha: float = 0.7,
    ) -> TTLEstimator:
        """Instantiate the selected estimator."""
        return _BUILDERS[self.name](self.param_dict(), bounds, ttl_quantile, ewma_alpha)


def build_estimator(
    name: str,
    bounds: Optional[TTLBounds] = None,
    ttl_quantile: float = 0.5,
    ewma_alpha: float = 0.7,
    **params: float,
) -> TTLEstimator:
    """Convenience wrapper: build a registered estimator by name."""
    return TTLEstimatorSpec.of(name, **params).build(
        bounds=bounds, ttl_quantile=ttl_quantile, ewma_alpha=ewma_alpha
    )
