"""Tests for the estimator registry knob.

Covers the full selection path: ``TTLEstimatorSpec`` ->
``QuaestorConfig.build_ttl_estimator`` -> ``QuaestorServer`` ->
``SimulationConfig.quaestor`` (single server and sharded cluster).
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
from repro.workloads import DatasetSpec


class TestTTLEstimatorSpec:
    def test_default_spec_selects_the_paper_estimator(self):
        assert TTLEstimatorSpec().name == DEFAULT_ESTIMATOR
        assert ESTIMATOR_NAMES == ("static", "alex", DEFAULT_ESTIMATOR)

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

    def test_param_dict_reads_back_the_overrides(self):
        assert TTLEstimatorSpec.of("static", window=10.0, ttl=5.0).param_dict() == {
            "ttl": 5.0,
            "window": 10.0,
        }
        assert TTLEstimatorSpec.of("static").param_dict() == {}

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

    def test_spec_quantile_and_alpha_flow_through_the_config(self):
        config = QuaestorConfig(ttl_estimator=TTLEstimatorSpec.of("quaestor", quantile=0.9, alpha=0.5))
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
