"""The durations report of ``scripts/test_durations.py`` (``make test-durations``)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "test_durations.py"


def test_every_phase_row_is_read_and_nothing_else():
    spec = importlib.util.spec_from_file_location("test_durations", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    output = "\n".join([
        "....  [100%]",
        "============================= slowest durations =============================",
        "10.58s setup    bench/tests/test_bench_smoke.py::test_every_declared_metric[read_hot]",
        "0.00s call     tests/test_clock.py::test_advance",
        "0.01s teardown tests/db/test_x.py::TestY::test_z[a b]",
        "(2 durations < 0.005s hidden.  Use -vv to show these durations.)",
        "1651 passed, 145 deselected in 202.36s (0:03:22)",
    ])
    assert module.durations(output) == [
        (10.58, "setup", "bench/tests/test_bench_smoke.py::test_every_declared_metric[read_hot]"),
        (0.0, "call", "tests/test_clock.py::test_advance"),
        (0.01, "teardown", "tests/db/test_x.py::TestY::test_z[a b]"),
    ]
