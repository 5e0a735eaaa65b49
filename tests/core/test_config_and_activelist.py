"""Tests for the server configuration, active list and representation model."""

from __future__ import annotations

import pytest

from repro.core import ActiveList, QuaestorConfig, ResultRepresentation, choose_representation
from repro.db.query import Query
from repro.errors import ConfigurationError


class TestQuaestorConfig:
    def test_defaults_are_valid(self):
        config = QuaestorConfig()
        assert config.caching
        assert config.cdn_ttl_factor >= 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QuaestorConfig(ebf_bits=0)
        with pytest.raises(ConfigurationError):
            QuaestorConfig(ttl_quantile=1.5)
        with pytest.raises(ConfigurationError):
            QuaestorConfig(ewma_alpha=1.0)
        with pytest.raises(ConfigurationError):
            QuaestorConfig(cdn_ttl_factor=0.5)
        with pytest.raises(ConfigurationError):
            QuaestorConfig(assumed_record_hit_rate=2.0)


    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"ebf_bits": -8}, "EBF geometry"),
            ({"ebf_bits": 0}, "EBF geometry"),
            ({"ttl_estimator": "ewma"}, "ttl_estimator"),
            ({"ttl_quantile": 0.0}, "ttl_quantile"),
            ({"ttl_quantile": 1.0}, "ttl_quantile"),
            ({"ewma_alpha": -0.01}, "ewma_alpha"),
            ({"cdn_ttl_factor": 0.99}, "cdn_ttl_factor"),
            ({"object_list_max_size": -1}, "object_list_max_size"),
            ({"assumed_record_hit_rate": -0.01}, "assumed_record_hit_rate"),
        ],
    )
    def test_each_bound_names_the_setting_it_rejects(self, setting, message):
        with pytest.raises(ConfigurationError, match=message):
            QuaestorConfig(**setting)

    @pytest.mark.parametrize(
        "setting",
        [
            {"ebf_bits": 1},
            {"ttl_quantile": 0.001},
            {"ttl_quantile": 0.999},
            {"ewma_alpha": 0.0},
            {"cdn_ttl_factor": 1.0},
            {"object_list_max_size": 0},
            {"assumed_record_hit_rate": 0.0},
            {"assumed_record_hit_rate": 1.0},
        ],
    )
    def test_each_bound_admits_its_edge(self, setting):
        config = QuaestorConfig(**setting)
        assert all(getattr(config, name) == value for name, value in setting.items())

class TestActiveList:
    def test_record_read_creates_entry(self):
        active = ActiveList()
        query = Query("posts", {"a": 1})
        entry = active.record_read(query, timestamp=10.0, ttl=30.0, result_size=5,
                                   representation=ResultRepresentation.OBJECT_LIST)
        assert entry.query_key == query.cache_key
        assert active.get(query.cache_key) is entry
        assert len(active) == 1

    def test_repeated_reads_update_entry(self):
        active = ActiveList()
        query = Query("posts", {"a": 1})
        active.record_read(query, 10.0, 30.0, 5, ResultRepresentation.OBJECT_LIST)
        entry = active.record_read(query, 20.0, 60.0, 7, ResultRepresentation.ID_LIST)
        assert entry.reads == 2
        assert entry.last_read_time == 20.0
        assert entry.current_ttl == 60.0
        assert entry.representation is ResultRepresentation.ID_LIST
        assert len(active) == 1

    def test_actual_ttl_is_time_since_last_read(self):
        active = ActiveList()
        query = Query("posts", {"a": 1})
        active.record_read(query, 10.0, 30.0, 5, ResultRepresentation.OBJECT_LIST)
        actual = active.record_invalidation(query.cache_key, timestamp=18.0)
        assert actual == pytest.approx(8.0)
        assert active.get(query.cache_key).invalidations == 1

    def test_invalidation_of_unknown_query_returns_none(self):
        assert ActiveList().record_invalidation("query:unknown", 5.0) is None


class TestRepresentationChoice:
    def test_small_results_prefer_object_lists(self):
        assert choose_representation(10, 0.6, 50) is ResultRepresentation.OBJECT_LIST

    def test_results_above_cap_use_id_lists(self):
        assert choose_representation(500, 0.6, 50) is ResultRepresentation.ID_LIST

    def test_high_record_hit_rate_can_justify_id_lists(self):
        # With all records already cached, the id-list costs almost no extra
        # round-trips but saves invalidations.
        assert choose_representation(1, 1.0, 50, change_fraction=0.9) is ResultRepresentation.ID_LIST

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_representation(-1, 0.5, 50)
        with pytest.raises(ValueError):
            choose_representation(1, 1.5, 50)
        with pytest.raises(ValueError):
            choose_representation(1, 0.5, 50, change_fraction=2.0)
