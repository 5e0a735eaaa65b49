"""Tests for the estimator registry knob, phased workloads and the bake-off.

Covers the full selection path the bake-off sweeps over: ``TTLEstimatorSpec``
-> ``QuaestorConfig.build_ttl_estimator`` -> ``QuaestorServer`` ->
``SimulationConfig.quaestor`` (single server and sharded cluster), plus
the :class:`~repro.workloads.PhasedWorkloadGenerator` that drives the
drifting and bursty scenarios, and a CI-sized end-to-end bake-off cell.
"""

from __future__ import annotations

import pytest

from repro.core import QuaestorConfig, QuaestorServer
from repro.db import Database
from repro.errors import ConfigurationError
from repro.simulation import CachingMode, SimulationConfig, Simulator
from repro.ttl import (
    DEFAULT_ESTIMATOR,
    ESTIMATOR_NAMES,
    QuaestorTTLEstimator,
    StaticTTLEstimator,
    TTLBounds,
    TTLEstimatorSpec,
)
from repro.ttl.bakeoff import (
    BakeoffScenario,
    bakeoff_scenarios,
    run_bakeoff,
    run_cell,
    scenario_config,
)
from repro.workloads import (
    DatasetSpec,
    PhasedWorkloadGenerator,
    WorkloadSpec,
    generate_dataset,
)


class TestTTLEstimatorSpec:
    def test_default_spec_selects_the_bakeoff_winner(self):
        assert TTLEstimatorSpec().name == DEFAULT_ESTIMATOR
        assert DEFAULT_ESTIMATOR in ESTIMATOR_NAMES

    def test_unknown_name_is_rejected(self):
        with pytest.raises(ValueError):
            TTLEstimatorSpec(name="nonsense")

    def test_params_must_come_from_of(self):
        with pytest.raises(ValueError):
            TTLEstimatorSpec(name="static", params=[("ttl", 5.0)])

    def test_spec_is_hashable_and_param_order_independent(self):
        a = TTLEstimatorSpec.of("static", ttl=5.0, window=10.0)
        b = TTLEstimatorSpec.of("static", window=10.0, ttl=5.0)
        assert a == b
        assert hash(a) == hash(b)

    def test_of_params_reach_the_estimator(self):
        estimator = TTLEstimatorSpec.of("static", ttl=42.0).build()
        assert isinstance(estimator, StaticTTLEstimator)
        assert estimator.ttl == 42.0

    def test_every_registered_name_builds(self):
        for name in ESTIMATOR_NAMES:
            spec = TTLEstimatorSpec.of(name)
            estimator = spec.build()
            assert estimator.estimate_record("k", 1.0) > 0.0

    def test_default_spec_is_the_span_sampled_dual_strategy(self):
        estimator = TTLEstimatorSpec().build()
        assert isinstance(estimator, QuaestorTTLEstimator)
        assert estimator.sampler.estimation == "span"


class TestConfigIntegration:
    def test_config_builds_the_selected_estimator(self):
        config = QuaestorConfig(ttl_estimator=TTLEstimatorSpec.of("static", ttl=7.0))
        estimator = config.build_ttl_estimator()
        assert isinstance(estimator, StaticTTLEstimator)
        assert estimator.bounds == config.ttl_bounds

    def test_config_quantile_and_alpha_flow_into_the_default(self):
        config = QuaestorConfig(ttl_quantile=0.9, ewma_alpha=0.5)
        estimator = config.build_ttl_estimator()
        assert estimator.quantile == 0.9
        assert estimator._query_ewma.alpha == 0.5

    def test_config_rejects_non_spec_values(self):
        with pytest.raises(ConfigurationError):
            QuaestorConfig(ttl_estimator="quaestor")

    def test_server_uses_the_configured_estimator(self):
        config = QuaestorConfig(ttl_estimator=TTLEstimatorSpec.of("static", ttl=9.0))
        server = QuaestorServer(Database(), config=config)
        assert isinstance(server.ttl_estimator, StaticTTLEstimator)
        assert server.ttl_estimator.ttl == 9.0


class TestSimulatorIntegration:
    def _config(self, **overrides):
        defaults = dict(
            mode=CachingMode.QUAESTOR,
            dataset=DatasetSpec(num_tables=1, documents_per_table=60, queries_per_table=8),
            num_clients=2,
            connections_per_client=10,
            matching_nodes=2,
            max_operations=600,
            seed=5,
        )
        defaults.update(overrides)
        return SimulationConfig(**defaults)

    def test_spec_overrides_the_server_estimator(self):
        static = QuaestorConfig(ttl_estimator=TTLEstimatorSpec.of("static"))
        simulator = Simulator(self._config(quaestor=static))
        assert isinstance(simulator.server.ttl_estimator, StaticTTLEstimator)

    def test_spec_reaches_every_shard_of_a_cluster(self):
        static = QuaestorConfig(ttl_estimator=TTLEstimatorSpec.of("static"))
        simulator = Simulator(self._config(num_shards=2, quaestor=static))
        for shard in simulator.cluster.groups:
            assert isinstance(shard.server.ttl_estimator, StaticTTLEstimator)

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_the_uncached_mode_keeps_the_other_quaestor_fields(self, num_shards):
        bounds = TTLBounds(minimum=2.0, maximum=30.0)
        quaestor = QuaestorConfig(ttl_estimator=TTLEstimatorSpec.of("static"), ttl_bounds=bounds)
        simulator = Simulator(
            self._config(mode=CachingMode.UNCACHED, num_shards=num_shards, quaestor=quaestor)
        )
        servers = (
            [simulator.server]
            if num_shards == 1
            else [shard.server for shard in simulator.cluster.groups]
        )
        for server in servers:
            assert not server.config.caching
            assert isinstance(server.ttl_estimator, StaticTTLEstimator)
            assert server.ttl_estimator.bounds == bounds

    def test_phased_workload_runs_and_advances_phases(self):
        phases = (
            (200, WorkloadSpec.with_update_rate(0.02, seed=5)),
            (200, WorkloadSpec.with_update_rate(0.3, seed=5)),
        )
        simulator = Simulator(self._config(workload_phases=phases, max_operations=600))
        assert isinstance(simulator.workload, PhasedWorkloadGenerator)
        simulator.run()
        # 600 operations drew through both 200-op budgets into the open tail.
        assert simulator.workload.phase_index == 1

    def test_empty_phases_are_rejected(self):
        with pytest.raises(ConfigurationError):
            self._config(workload_phases=())
        with pytest.raises(ConfigurationError):
            self._config(workload_phases=((0, WorkloadSpec.read_heavy()),))


def fingerprint(operation):
    """Identity of one sampled operation (type + target) for stream equality."""
    query_key = operation.query.cache_key if operation.query is not None else None
    return (operation.type, operation.collection, operation.document_id, query_key)


def draw(generator, count):
    """``count`` operations, refilling across phase boundaries."""
    batch = []
    while len(batch) < count:
        batch.extend(generator.next_operations(count - len(batch)))
    return batch


class TestPhasedWorkloadGenerator:
    @pytest.fixture()
    def dataset(self):
        return generate_dataset(
            DatasetSpec(num_tables=1, documents_per_table=40, queries_per_table=6)
        )

    def test_stream_is_deterministic(self, dataset):
        phases = [
            (50, WorkloadSpec.with_update_rate(0.1, seed=3)),
            (50, WorkloadSpec.with_update_rate(0.5, seed=4)),
        ]
        first = draw(PhasedWorkloadGenerator(phases, dataset), 150)
        second = draw(PhasedWorkloadGenerator(phases, dataset), 150)
        assert [fingerprint(op) for op in first] == [fingerprint(op) for op in second]

    def test_chunked_and_single_sampling_agree(self, dataset):
        phases = [
            (30, WorkloadSpec.with_update_rate(0.1, seed=3)),
            (45, WorkloadSpec.with_update_rate(0.5, seed=4)),
        ]
        chunked = draw(PhasedWorkloadGenerator(phases, dataset), 100)
        generator = PhasedWorkloadGenerator(phases, dataset)
        one_by_one = [generator.next_operations(1)[0] for _ in range(100)]
        # Both paths must respect the same phase boundaries and RNG streams.
        assert [fingerprint(op) for op in chunked] == [fingerprint(op) for op in one_by_one]

    def test_next_operations_never_crosses_a_phase_boundary(self, dataset):
        phases = [
            (10, WorkloadSpec.with_update_rate(0.1, seed=3)),
            (10, WorkloadSpec.with_update_rate(0.5, seed=4)),
        ]
        generator = PhasedWorkloadGenerator(phases, dataset)
        batch = generator.next_operations(25)
        assert len(batch) == 10  # capped at the first phase's remaining budget
        assert generator.phase_index == 0
        generator.next_operations(10)
        assert generator.phase_index == 1

    def test_final_phase_is_open_ended(self, dataset):
        generator = PhasedWorkloadGenerator(
            [(5, WorkloadSpec.with_update_rate(0.1, seed=3))], dataset
        )
        assert len(draw(generator, 40)) == 40
        assert generator.phase_index == 0

    def test_write_mix_shifts_across_phases(self, dataset):
        from repro.workloads import OperationType

        phases = [
            (400, WorkloadSpec.with_update_rate(0.02, seed=3)),
            (400, WorkloadSpec.with_update_rate(0.5, seed=3)),
        ]
        generator = PhasedWorkloadGenerator(phases, dataset)
        first = draw(generator, 400)
        second = draw(generator, 400)

        def update_share(batch):
            return sum(1 for op in batch if op.type is OperationType.UPDATE) / len(batch)

        assert update_share(first) < 0.1
        assert update_share(second) > 0.3

    def test_invalid_phases_are_rejected(self, dataset):
        with pytest.raises(ConfigurationError):
            PhasedWorkloadGenerator([], dataset)
        with pytest.raises(ConfigurationError):
            PhasedWorkloadGenerator([(0, WorkloadSpec.read_heavy())], dataset)


class TestBakeoff:
    def test_scenarios_cover_the_three_write_processes(self):
        scenarios = bakeoff_scenarios(max_operations=800, seed=17)
        names = [scenario.name for scenario in scenarios]
        assert names == ["stationary", "drifting", "bursty"]
        stationary, drifting, bursty = scenarios
        assert stationary.is_stationary
        assert len(drifting.phases) == 6
        assert len(bursty.phases) == 8
        # The drift ramps monotonically; the bursts alternate off/on.
        drift_rates = [spec.update_proportion for _, spec in drifting.phases]
        assert drift_rates == sorted(drift_rates)
        burst_rates = [spec.update_proportion for _, spec in bursty.phases]
        assert burst_rates[::2] == [pytest.approx(0.01)] * 4
        assert burst_rates[1::2] == [pytest.approx(0.40)] * 4

    def test_scenario_config_wires_spec_and_phases(self):
        scenario = bakeoff_scenarios(max_operations=800, seed=17)[1]
        config = scenario_config(scenario, TTLEstimatorSpec.of("static"), 800, 17)
        assert config.quaestor.ttl_estimator == TTLEstimatorSpec.of("static")
        assert config.workload_phases == scenario.phases

    def test_cell_metrics_are_complete_and_sane(self):
        scenario = bakeoff_scenarios(max_operations=400, seed=17)[0]
        cell = run_cell(scenario, "quaestor", max_operations=400, seed=17)
        for metric in (
            "cache_hit_rate",
            "stale_rate",
            "invalidations_per_1k_ops",
            "ebf_fill_ratio",
            "quality_score",
        ):
            assert metric in cell
        assert 0.0 <= cell["cache_hit_rate"] <= 1.0
        assert 0.0 <= cell["stale_rate"] <= 1.0
        assert cell["quality_score"] == pytest.approx(
            cell["cache_hit_rate"] * (1.0 - cell["stale_rate"])
        )

    def test_run_bakeoff_is_deterministic_and_ranks_all_estimators(self):
        kwargs = dict(max_operations=300, seed=17, estimators=("static", "quaestor"))
        first = run_bakeoff(**kwargs)
        second = run_bakeoff(**kwargs)
        assert first == second
        assert {entry["estimator"] for entry in first["ranking"]} == {"static", "quaestor"}
        assert first["winner"]["estimator"] == first["ranking"][0]["estimator"]
        assert set(first["scenarios"]) == {"stationary", "drifting", "bursty"}

    def test_unknown_estimator_is_rejected(self):
        with pytest.raises(ValueError):
            run_bakeoff(max_operations=300, estimators=("nonsense",))
