"""TTL estimator bake-off: every estimator family under three write processes.

The paper motivates its Poisson+EWMA TTL estimator informally; this module
makes the comparison rigorous.  Each registered estimator family
(:data:`repro.ttl.spec.ESTIMATOR_NAMES`) is driven end-to-end through the
simulator under three deterministic per-key write processes:

``stationary``
    A single workload phase with a fixed update rate -- the regime every
    estimator's steady-state assumptions hold in.

``drifting``
    A slow mean shift: six equal phases whose update rate ramps from 2 % to
    32 % while the Zipf hot set stays fixed (same workload seed per phase),
    so per-key write rates drift upward and stale estimators over-cache.

``bursty``
    A flash-crowd on/off process: eight phases alternating between a 1 %
    trickle and a 40 % write storm, each storm re-seeded so it hammers a
    *different* hot set.  Estimators with slow forgetting hand out stale
    TTLs right after each burst.

Every cell of the (estimator x scenario) grid reports the stale-read rate,
cache hit rate, invalidation cost and EBF pressure, and is scored by
``cache_hit_rate * (1 - stale_rate)`` -- the probability a request was both
served from cache *and* fresh.  The estimator with the highest mean score
across scenarios wins the bake-off.  ``tests/ttl/test_spec_and_bakeoff.py``
pins the grid at 1 500 operations per cell in tier-1 and, in the
``slow_chaos`` job, checks that the full size (``DEFAULT_OPERATIONS``) ranks
:data:`repro.ttl.spec.DEFAULT_ESTIMATOR` first.

The sweep uses tighter TTL bounds than the production default: the simulator
compresses wall-clock time, and with the production floor of one second every
estimate clamps to the same bound, hiding any difference between families
(verified empirically -- the seeded golden summaries are byte-identical
across estimators under production bounds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import QuaestorConfig
from repro.simulation.simulator import CachingMode, SimulationConfig, Simulator
from repro.ttl.base import TTLBounds
from repro.ttl.spec import ESTIMATOR_NAMES, TTLEstimatorSpec
from repro.workloads import DatasetSpec, WorkloadSpec

#: Default operation budget of one simulated cell (full bake-off).
DEFAULT_OPERATIONS = 6_000
#: Base RNG seed for the sweep; phase seeds are derived from it.
DEFAULT_SEED = 17
#: TTL bounds of the sweep (see module docstring for why they are tighter
#: than the production default).
BAKEOFF_BOUNDS = TTLBounds(minimum=0.05, maximum=60.0)

#: Update-rate ramp of the drifting scenario (slow mean shift, fixed hot set).
DRIFT_UPDATE_RATES = (0.02, 0.05, 0.10, 0.16, 0.24, 0.32)
#: Off/on update rates of the bursty flash-crowd scenario.
BURST_OFF_RATE = 0.01
BURST_ON_RATE = 0.40
BURST_PHASES = 8


@dataclass(frozen=True)
class BakeoffScenario:
    """One deterministic write process the estimators compete under."""

    name: str
    description: str
    #: ``(operations, spec)`` phases; a single phase means stationary.
    phases: Tuple[Tuple[int, WorkloadSpec], ...]

    @property
    def is_stationary(self) -> bool:
        return len(self.phases) == 1


def bakeoff_scenarios(
    max_operations: int = DEFAULT_OPERATIONS, seed: int = DEFAULT_SEED
) -> Tuple[BakeoffScenario, ...]:
    """The three write processes of the bake-off, scaled to ``max_operations``."""
    if max_operations < len(DRIFT_UPDATE_RATES):
        raise ValueError("max_operations too small to hold the drifting phases")

    stationary = BakeoffScenario(
        name="stationary",
        description="fixed 5% update rate, fixed Zipf hot set",
        phases=((max_operations, WorkloadSpec.with_update_rate(0.05, seed=seed)),),
    )

    drift_budget = max(1, max_operations // len(DRIFT_UPDATE_RATES))
    drifting = BakeoffScenario(
        name="drifting",
        description="update rate ramps 2%..32% over six phases, hot set fixed",
        phases=tuple(
            (drift_budget, WorkloadSpec.with_update_rate(rate, seed=seed))
            for rate in DRIFT_UPDATE_RATES
        ),
    )

    burst_budget = max(1, max_operations // BURST_PHASES)
    burst_phases: List[Tuple[int, WorkloadSpec]] = []
    for index in range(BURST_PHASES):
        if index % 2 == 0:
            spec = WorkloadSpec.with_update_rate(BURST_OFF_RATE, seed=seed)
        else:
            # Each storm gets its own seed: the flash crowd hits a different
            # hot set every time, defeating estimators that never forget.
            spec = WorkloadSpec.with_update_rate(BURST_ON_RATE, seed=seed + index)
        burst_phases.append((burst_budget, spec))
    bursty = BakeoffScenario(
        name="bursty",
        description="1% trickle / 40% storm on-off, each storm re-seeded",
        phases=tuple(burst_phases),
    )

    return (stationary, drifting, bursty)


def scenario_config(
    scenario: BakeoffScenario,
    estimator: TTLEstimatorSpec,
    max_operations: int = DEFAULT_OPERATIONS,
    seed: int = DEFAULT_SEED,
) -> SimulationConfig:
    """The simulator configuration of one (estimator x scenario) cell."""
    phases: Optional[Tuple[Tuple[int, WorkloadSpec], ...]] = None
    if not scenario.is_stationary:
        phases = scenario.phases
    return SimulationConfig(
        mode=CachingMode.QUAESTOR,
        workload=scenario.phases[0][1],
        workload_phases=phases,
        dataset=DatasetSpec(num_tables=2, documents_per_table=300, queries_per_table=30),
        num_clients=4,
        connections_per_client=50,
        ebf_refresh_interval=0.05,
        matching_nodes=2,
        duration=60.0,
        max_operations=max_operations,
        seed=seed,
        quaestor=QuaestorConfig(ttl_estimator=estimator, ttl_bounds=BAKEOFF_BOUNDS),
    )


def _cell_metrics(result) -> Dict[str, float]:
    """Flatten one simulation result into the bake-off's reported metrics."""
    level_counts = result.level_counts
    reads = sum(level_counts["read"].values())
    queries = sum(level_counts["query"].values())
    requests = max(reads + queries, 1)
    origin = level_counts["read"].get("origin", 0) + level_counts["query"].get("origin", 0)
    cache_hit_rate = 1.0 - origin / requests
    stale_rate = (
        result.read_stale_rate * reads + result.query_stale_rate * queries
    ) / requests

    stats = result.server_statistics
    operations = max(result.operations, 1)
    per_1k = 1000.0 / operations
    invalidations = stats.get("query_invalidations", 0) + stats.get("purges_sent", 0)

    return {
        "cache_hit_rate": cache_hit_rate,
        "stale_rate": stale_rate,
        "read_stale_rate": result.read_stale_rate,
        "query_stale_rate": result.query_stale_rate,
        "invalidations_per_1k_ops": invalidations * per_1k,
        "ebf_additions_per_1k_ops": stats.get("ebf_additions", 0) * per_1k,
        "ebf_fill_ratio": stats.get("ebf_fill_ratio", 0.0),
        "ebf_stale_keys": float(stats.get("ebf_stale_keys", 0)),
        "quality_score": cache_hit_rate * (1.0 - stale_rate),
    }


def run_cell(
    scenario: BakeoffScenario,
    estimator_name: str,
    max_operations: int = DEFAULT_OPERATIONS,
    seed: int = DEFAULT_SEED,
) -> Dict[str, float]:
    """Run one (estimator x scenario) cell and return its metric row."""
    config = scenario_config(
        scenario,
        TTLEstimatorSpec.of(estimator_name),
        max_operations=max_operations,
        seed=seed,
    )
    return _cell_metrics(Simulator(config).run())


def run_bakeoff(
    max_operations: int = DEFAULT_OPERATIONS,
    seed: int = DEFAULT_SEED,
    estimators: Optional[Sequence[str]] = None,
    scenarios: Optional[Iterable[BakeoffScenario]] = None,
) -> Dict[str, object]:
    """Run the full grid and rank the estimators.

    Returns a JSON-ready report::

        {
          "max_operations": ..., "seed": ...,
          "scenarios": {scenario: {estimator: {metric: value, ...}}},
          "ranking": [{"estimator": ..., "mean_quality_score": ...,
                       "mean_stale_rate": ..., "mean_cache_hit_rate": ...}],
          "winner": {"estimator": ..., "quality_score": ...},
        }
    """
    names: Tuple[str, ...] = tuple(estimators) if estimators is not None else ESTIMATOR_NAMES
    for name in names:
        if name not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator: {name!r} (known: {ESTIMATOR_NAMES})")
    grid_scenarios = tuple(
        scenarios if scenarios is not None else bakeoff_scenarios(max_operations, seed)
    )

    grid: Dict[str, Dict[str, Dict[str, float]]] = {}
    for scenario in grid_scenarios:
        row: Dict[str, Dict[str, float]] = {}
        for name in names:
            row[name] = run_cell(scenario, name, max_operations=max_operations, seed=seed)
        grid[scenario.name] = row

    ranking = []
    for name in names:
        cells = [grid[scenario.name][name] for scenario in grid_scenarios]
        count = len(cells)
        ranking.append(
            {
                "estimator": name,
                "mean_quality_score": sum(cell["quality_score"] for cell in cells) / count,
                "mean_stale_rate": sum(cell["stale_rate"] for cell in cells) / count,
                "mean_cache_hit_rate": sum(cell["cache_hit_rate"] for cell in cells) / count,
            }
        )
    ranking.sort(key=lambda entry: (-entry["mean_quality_score"], entry["estimator"]))

    return {
        "max_operations": max_operations,
        "seed": seed,
        "estimators": list(names),
        "scenario_descriptions": {
            scenario.name: scenario.description for scenario in grid_scenarios
        },
        "scenarios": grid,
        "ranking": ranking,
        "winner": {
            "estimator": ranking[0]["estimator"],
            "quality_score": ranking[0]["mean_quality_score"],
        },
    }
