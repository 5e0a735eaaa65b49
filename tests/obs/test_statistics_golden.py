"""Value-for-value goldens for every ``SimulationResult.server_statistics`` readout.

A single server's ``statistics()`` and a fleet's cluster-wide snapshot are
views over the run's counters.  These goldens pin each readout -- every key,
every value and its JSON type -- for the three recorder-golden
configurations and the four benchmark workloads at smoke size, plus the
``canonical_metrics_bytes`` digest of smoke-size ``fleet_chaos``.  The 16
verify-matrix cells are pinned too, behind the ``slow_chaos`` marker.

Re-pin (only when a counted quantity is meant to change)::

    PYTHONPATH=src python tests/obs/test_statistics_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.obs import canonical_metrics_bytes
from repro.simulation import Simulator
from repro.verify.scenarios import scenario_matrix

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import SMOKE_OPERATIONS, WORKLOADS, build_config  # noqa: E402
from test_recorder_goldens import CONFIGS as RECORDER_CONFIGS  # noqa: E402

GOLDEN_PATH = Path(__file__).with_name("golden_statistics.json")

CONFIGS = {
    **{f"recorder:{name}": build for name, build in RECORDER_CONFIGS.items()},
    **{
        f"bench:{workload.name}": (
            lambda name=workload.name: build_config(name, 42, 0, SMOKE_OPERATIONS)
        )
        for workload in WORKLOADS
    },
}
SLOW_CONFIGS = {f"verify:{spec.name}": spec.build_config for spec in scenario_matrix()}
METRICS_KEY = "bench:fleet_chaos:metrics_sha256"


def _canonical(statistics) -> str:
    return json.dumps(statistics, sort_keys=True)


def readout(name: str):
    """``(server_statistics, simulator)`` of one run of the named config."""
    build = CONFIGS.get(name) or SLOW_CONFIGS[name]
    simulator = Simulator(build())
    return simulator.run().server_statistics, simulator


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_statistics_match_the_golden(name):
    statistics, simulator = readout(name)
    assert _canonical(statistics) == _canonical(_golden()[name])
    if name == "bench:fleet_chaos":
        digest = hashlib.sha256(canonical_metrics_bytes(simulator.metrics_state())).hexdigest()
        assert digest == _golden()[METRICS_KEY]


@pytest.mark.slow_chaos
@pytest.mark.parametrize("name", sorted(SLOW_CONFIGS))
def test_verify_cell_statistics_match_the_golden(name):
    statistics, _simulator = readout(name)
    assert _canonical(statistics) == _canonical(_golden()[name])


if __name__ == "__main__":
    golden = {}
    for name in [*CONFIGS, *SLOW_CONFIGS]:
        statistics, simulator = readout(name)
        golden[name] = statistics
        if name == "bench:fleet_chaos":
            golden[METRICS_KEY] = hashlib.sha256(
                canonical_metrics_bytes(simulator.metrics_state())
            ).hexdigest()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(golden)} entries in {GOLDEN_PATH.name}")
