"""Smoke test of ``scripts/wall_profile.py`` (``make wall-profile``) on a tiny run."""

from __future__ import annotations

import importlib.util
import signal
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "wall_profile.py"


@pytest.fixture(scope="module")
def wall_profile():
    spec = importlib.util.spec_from_file_location("wall_profile", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tiny_run_is_sampled_by_layer_and_function(wall_profile):
    handler = signal.getsignal(signal.SIGALRM)
    sampler = wall_profile.profile("origin_bound", 42, 1500)
    assert signal.getsignal(signal.SIGALRM) == handler  # the timer's handler is put back
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    lines = sampler.report()
    layers = {line.split()[0] for line in lines[1:] if line.split()[0] != "function"}
    assert "simulation" in layers and "db" in layers
    assert sum(":" in line for line in lines) >= 5  # module:function rows


def test_self_samples_cover_every_sample(wall_profile):
    sampler = wall_profile.profile("origin_bound", 42, 1500)
    assert sampler.samples > 0
    assert sum(sampler.layer_self.values()) == sampler.samples
    assert sum(sampler.function_self.values()) == sampler.samples
    assert sampler.layer_inclusive["simulation"] == sampler.samples  # run() is on every stack
    assert wall_profile.layer_of("repro.db.collection") == "db"
    assert wall_profile.layer_of("json.encoder") == "stdlib"
