"""Tests for the tabular experiment reports the figure harnesses print."""

from __future__ import annotations

import pytest

from repro.benchmarks.report import ExperimentReport, format_table


class TestExperimentReport:
    def test_add_row_validates_columns(self):
        report = ExperimentReport("X", "desc", columns=["a", "b"])
        report.add_row(a=1, b=2)
        with pytest.raises(ValueError):
            report.add_row(a=1, c=3)

    def test_column_extraction(self):
        report = ExperimentReport("X", "desc", columns=["a", "b"])
        report.add_row(a=1, b=2)
        report.add_row(a=3, b=4)
        assert report.column("a") == [1, 3]
        with pytest.raises(KeyError):
            report.column("missing")

    def test_text_rendering_contains_data_and_notes(self):
        report = ExperimentReport("Figure X", "A description.", columns=["metric", "value"])
        report.add_row(metric="throughput", value=123.456)
        report.add_note("shape holds")
        text = report.to_text()
        assert "Figure X" in text
        assert "throughput" in text
        assert "123.456" in text
        assert "shape holds" in text

    def test_format_table_alignment(self):
        table = format_table(["col"], [{"col": "x"}, {"col": "longer"}])
        lines = table.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert len(set(len(line) for line in lines)) == 1
