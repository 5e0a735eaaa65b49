"""Smoke tests for the benchmark harnesses (full runs live in ``benchmarks/``)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.benchmarks import BenchmarkScale, PAPER_SCALE, SMALL_SCALE, harness
from repro.benchmarks.figure1 import PageLoadModel, run_figure1
from repro.benchmarks.figure8 import run_figure8_connection_sweep, run_figure8_query_count_sweep
from repro.benchmarks.figure12 import exercise_matching, run_figure12
from repro.benchmarks.harness import ALL_MODES, run_mode
from repro.simulation.simulator import CachingMode, Simulator


#: A deliberately tiny scale so harness smoke tests stay fast.
TINY_SCALE = BenchmarkScale(
    name="tiny",
    num_tables=2,
    documents_per_table=300,
    queries_per_table=20,
    connection_steps=[20, 40],
    num_clients=4,
    max_operations=1_500,
    duration=60.0,
    query_count_steps=[20, 40],
    document_count_steps=[300, 600],
    matching_nodes=2,
)


class TestScales:
    def test_small_and_paper_scales_are_consistent(self):
        for scale in (SMALL_SCALE, PAPER_SCALE):
            assert scale.connection_steps == sorted(scale.connection_steps)
            spec = scale.dataset_spec()
            assert (spec.num_tables, spec.documents_per_table) == (
                scale.num_tables, scale.documents_per_table
            )

    def test_dataset_spec_overrides(self):
        spec = SMALL_SCALE.dataset_spec(documents_per_table=10, queries_per_table=2, num_tables=1)
        assert (spec.num_tables, spec.documents_per_table, spec.queries_per_table) == (1, 10, 2)

    def test_paper_scale_matches_section_6_1(self):
        assert PAPER_SCALE.num_tables == 10
        assert PAPER_SCALE.documents_per_table == 10_000
        assert PAPER_SCALE.queries_per_table == 100
        assert PAPER_SCALE.connection_steps[-1] == 3000


class TestRunMode:
    def test_produces_result_for_every_mode(self):
        for mode in ALL_MODES:
            result = run_mode(TINY_SCALE, mode, connections=20, max_operations=600)
            assert result.operations > 0
            assert result.mode is mode

    def test_quaestor_beats_uncached_even_at_tiny_scale(self):
        quaestor = run_mode(TINY_SCALE, CachingMode.QUAESTOR, connections=40, max_operations=1_200)
        uncached = run_mode(TINY_SCALE, CachingMode.UNCACHED, connections=40, max_operations=1_200)
        assert quaestor.throughput > uncached.throughput


class TestFigure8Sweeps:
    """Each sweep runs every distinct cell once and fills all its reports from it."""

    SCALE = replace(TINY_SCALE, max_operations=600)

    @pytest.fixture
    def built(self, monkeypatch):
        """Counts the simulators the harness builds."""
        configs = []

        class CountingSimulator(Simulator):
            def __init__(self, config):
                configs.append(config)
                super().__init__(config)

        monkeypatch.setattr(harness, "Simulator", CountingSimulator)
        return configs

    def test_the_connection_sweep_runs_each_cell_once(self, built):
        steps, modes = [20, 40], ALL_MODES
        reports = run_figure8_connection_sweep(self.SCALE, connection_steps=steps, modes=modes)
        assert len(built) == len(steps) * len(modes)
        assert [report.experiment for report in reports] == ["Figure 8a", "Figure 8b", "Figure 8c"]
        cells = [(connections, mode) for connections in steps for mode in modes]
        assert all(len(report.rows) == len(cells) for report in reports)
        throughput, reads, queries = reports
        for index, (connections, mode) in enumerate(cells):
            result = run_mode(self.SCALE, mode, connections)
            cell = {"connections": connections, "mode": mode.value}
            assert throughput.rows[index] == {
                **cell, "throughput": result.throughput, "operations": result.operations,
            }
            assert reads.rows[index] == {
                **cell,
                "mean_read_latency_ms": result.read_latency.mean * 1000.0,
                "p99_read_latency_ms": result.read_latency.percentile(0.99) * 1000.0,
            }
            assert queries.rows[index] == {
                **cell,
                "mean_query_latency_ms": result.query_latency.mean * 1000.0,
                "p99_query_latency_ms": result.query_latency.percentile(0.99) * 1000.0,
            }

    def test_the_query_count_sweep_runs_each_count_once(self, built):
        steps = [20, 40]
        latency, hit_rates = run_figure8_query_count_sweep(
            self.SCALE, query_count_steps=steps, connections=20
        )
        assert len(built) == len(steps)
        assert (latency.experiment, hit_rates.experiment) == ("Figure 8d", "Figure 8e")
        for index, total_queries in enumerate(steps):
            queries_per_table = total_queries // self.SCALE.num_tables
            dataset = self.SCALE.dataset_spec(queries_per_table=queries_per_table)
            result = run_mode(self.SCALE, CachingMode.QUAESTOR, 20, dataset=dataset)
            assert latency.rows[index] == {
                "query_count": total_queries,
                "mean_query_latency_ms": result.query_latency.mean * 1000.0,
                "mean_read_latency_ms": result.read_latency.mean * 1000.0,
            }
            assert hit_rates.rows[index] == {
                "query_count": total_queries,
                "client_query_hit_rate": result.client_query_hit_rate,
                "client_read_hit_rate": result.client_read_hit_rate,
                "cdn_query_hit_rate": result.cdn_query_hit_rate,
                "cdn_read_hit_rate": result.cdn_read_hit_rate,
            }


class TestFigure1Harness:
    def test_report_covers_all_regions_and_providers(self):
        report = run_figure1()
        assert len(report.rows) == 4 * 5
        assert {row["provider"] for row in report.rows} == {
            "Baqend", "Kinvey", "Firebase", "Azure", "Parse",
        }

    def test_cdn_backed_provider_is_fastest_everywhere(self):
        report = run_figure1()
        for region in {row["region"] for row in report.rows}:
            rows = [row for row in report.rows if row["region"] == region]
            fastest = min(rows, key=lambda row: row["first_load_seconds"])
            assert fastest["provider"] == "Baqend"

    def test_origin_load_grows_with_distance(self):
        model = PageLoadModel()
        assert model.origin_backed_load(0.3) > model.origin_backed_load(0.03)
        assert model.cdn_backed_load(0.3) < model.origin_backed_load(0.3)


class TestFigure12Harness:
    def test_micro_exercise_produces_notifications(self):
        outcome = exercise_matching(matching_nodes=2, queries_per_node=10, events=200)
        assert outcome["notifications"] > 0
        assert outcome["total_match_operations"] > 0
        assert outcome["active_queries"] == 20

    def test_report_scales_linearly(self):
        report = run_figure12(node_counts=[1, 2], queries_per_node_micro=5, micro_events=100)
        by_nodes = {}
        for row in report.rows:
            by_nodes.setdefault(row["matching_nodes"], []).append(row["sustainable_throughput_ops"])
        for bound_index in range(3):
            assert by_nodes[2][bound_index] == pytest.approx(2 * by_nodes[1][bound_index])
