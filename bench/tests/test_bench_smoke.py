"""Smoke tests of the benchmark itself (``--smoke`` sizes: 1 segment of 1500 ops)."""

from __future__ import annotations

import cProfile
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.child import EXPECTED_DIGESTS, run_workload  # noqa: E402
from bench.compare import _exact_per_layer, verdict  # noqa: E402
from bench.layers import FLEET_ONLY_LAYERS, LayerTableError, _resolve, attribute  # noqa: E402
from bench.metrics import END_TO_END, per_layer_catalogue  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
END_TO_END_BY_NAME = {metric.name: metric for metric in END_TO_END}


def _smoke(names):
    return {name: run_workload(name, segments=1, traced=True, smoke=True) for name in names}


@pytest.fixture(scope="module")
def smoke_runs():
    """In-process smoke runs (timed + traced pass): every workload, then again
    the two that between them execute every layer."""
    return _smoke(w.name for w in WORKLOADS), _smoke(["write_churn", "fleet_chaos"])


def test_every_declared_metric_is_reported_for_every_workload(smoke_runs):
    per_layer = [entry["name"] for entry in per_layer_catalogue()]
    assert len(per_layer) == len(set(per_layer)) <= 128
    for name in per_layer + [metric.name for metric in END_TO_END]:
        assert NAME.fullmatch(name), name
    for result in smoke_runs[0].values():
        assert result["correct"], result["failures"]
        assert result["ops_attempted"] == 1500 and result["ops_failed"] == 0
        assert set(result["end_to_end"]) == set(END_TO_END_BY_NAME)
        assert set(result["per_layer"]) == set(per_layer)
        assert all(result["end_to_end"][metric.name] != 0 for metric in END_TO_END if metric.gated)


def test_exact_metrics_repeat_to_the_last_digit(smoke_runs):
    first, second = smoke_runs
    for name, b in second.items():
        a = first[name]
        assert a["digests"] == b["digests"]
        for metric in END_TO_END:
            if metric.exact:
                assert a["end_to_end"][metric.name] == b["end_to_end"][metric.name], metric.name
        assert _exact_per_layer(a["per_layer"]) == _exact_per_layer(b["per_layer"])


def test_fleet_only_layers_cost_no_calls_on_a_single_server(smoke_runs):
    for workload in WORKLOADS:
        layers = smoke_runs[0][workload.name]["per_layer"]
        for layer in FLEET_ONLY_LAYERS:
            calls = layers[f"{layer}.calls_per_op"]
            assert (calls > 0) if workload.fleet else (calls == 0), (workload.name, layer)
        assert layers["calls_per_op"] == pytest.approx(
            sum(value for key, value in layers.items() if re.fullmatch(r"[a-z]+\.calls_per_op", key))
        )


def test_benchmark_json_declares_exactly_the_catalogue():
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    assert declared["paths"] == ["bench"] and declared["command"] == ["python3", "bench/run.py"]
    assert declared["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS]
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
        if m.gated
    ]
    assert declared["per_layer"] == per_layer_catalogue()


def test_a_corrupted_expected_digest_fails_the_run(tmp_path):
    with open(EXPECTED_DIGESTS) as handle:
        pinned = json.load(handle)
    pinned["smoke"]["read_hot"] = ["0" * 16]
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(pinned))
    finished = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "--workload", "read_hot",
         "--trace", "0", "--expected", str(corrupted)],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert finished.returncode != 0
    assert "(a) summary digest" in finished.stdout
    last = json.loads(finished.stdout.splitlines()[-1])
    assert last["correct"] is False and last["failed"] == last["attempted"] == 1500


def test_compare_verdicts():
    host, exact = END_TO_END_BY_NAME["host_ops_per_s"], END_TO_END_BY_NAME["calls_per_op"]
    assert verdict(host, 100.0, 100.0, 0.0) == "identical"
    assert verdict(host, 100.0, 95.0, 0.05) == "within-bound"
    assert verdict(host, 100.0, 95.0, 0.5) == "unresolved"
    assert verdict(host, 100.0, 70.0, 0.5) == "worse"
    assert verdict(host, 100.0, 170.0, 0.0) == "within-bound"  # higher is better
    assert verdict(exact, 300.0, 299.0, 0.0) == "changed"
    assert verdict(exact, 300.0, 310.0, 0.0) == "worse"
    stale = END_TO_END_BY_NAME["sim_stale_read_rate"]
    assert verdict(stale, 0.0, 0.00005, 0.0) == "changed"  # inside the absolute floor
    assert verdict(stale, 0.0, 0.01, 0.0) == "worse"


def test_layer_table_guards_fail_loudly():
    with pytest.raises(LayerTableError, match="does not resolve"):
        _resolve("repro.db.documents:renamed_deep_copy")
    import repro

    # A frame from a src/repro package the table does not declare.
    stray = Path(repro.__file__).parent / "undeclared_package" / "module.py"
    namespace: dict = {}
    exec(compile("def work():\n    return 1\n", str(stray), "exec"), namespace)
    profiler = cProfile.Profile()
    profiler.runcall(namespace["work"])
    with pytest.raises(LayerTableError, match="no declared layer"):
        attribute(profiler.getstats(), operations=1)
