"""The verdict of ``scripts/bench_pairs.py`` (``make bench-pairs``) in both directions."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [0.44, 0.45, 0.43, 0.46, 0.44, 0.45, 0.47, 0.44, 0.45, 0.43]
FASTER = [0.30, 0.31, 0.29, 0.32, 0.30, 0.31, 0.30, 0.29, 0.31, 0.30]


def test_a_lower_is_better_metric_gains_by_falling(bench_pairs):
    assert bench_pairs.DECLARED["setup_s"]["better"] == "lower"
    assert bench_pairs.verdict(PARENT, FASTER, "lower") == "GAIN"
    assert bench_pairs.verdict(FASTER, PARENT, "lower") == "LOSS"


def test_a_higher_is_better_metric_gains_by_rising(bench_pairs):
    assert bench_pairs.verdict(PARENT, FASTER, "higher") == "LOSS"
    assert bench_pairs.verdict(FASTER, PARENT) == "GAIN"


def test_one_lost_pair_in_ten_still_gains_two_do_not(bench_pairs):
    one_lost = FASTER[:9] + [0.50]
    assert bench_pairs.verdict(PARENT, one_lost, "lower") == "GAIN"
    two_lost = FASTER[:8] + [0.50, 0.50]
    assert bench_pairs.verdict(PARENT, two_lost, "lower") == "FLAT"


def test_a_gap_inside_the_parents_spread_is_flat(bench_pairs):
    wide = [0.30, 0.60, 0.30, 0.60, 0.30, 0.60, 0.30, 0.60, 0.30, 0.60]
    barely = [value - 0.01 for value in wide]
    assert bench_pairs.verdict(wide, barely, "lower") == "FLAT"


def test_each_side_writes_bytecode_to_its_own_cache(bench_pairs, monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = bench_pairs.side_env(tmp_path / "parent-pycache")
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path / "parent-pycache")
