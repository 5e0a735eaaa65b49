"""Shared pytest fixtures for the benchmark targets.

Every benchmark regenerates one of the paper's tables or figures and prints
the resulting data series, so running ``pytest benchmarks/ --benchmark-only``
reproduces the full evaluation at laptop scale.  Each report is additionally
written to ``benchmarks/results/<experiment>.txt`` so the series survive
pytest's output capturing and can be compared against the paper
(see ``docs/benchmarks.md``).
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.benchmarks.harness import SMALL_SCALE

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale():
    """The benchmark scale used by default (laptop-friendly)."""
    return SMALL_SCALE


def emit(report) -> None:
    """Print an experiment report and persist it under ``benchmarks/results/``."""
    text = report.to_text()
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    slug = re.sub(r"[^a-z0-9]+", "_", report.experiment.lower()).strip("_")
    path = RESULTS_DIR / f"{slug}.txt"
    path.write_text(text + "\n", encoding="utf-8")
