#!/usr/bin/env python3
"""The repo's one benchmark: four workloads, end to end and layer by layer.

    python bench/run.py                              every workload, timed + traced pass, report
    python bench/run.py --workload read_hot --out result.json
    python bench/run.py --compare A.json B.json      rows of (workload, metric) with verdicts
    python bench/run.py --update-expected            re-pin bench/expected/digests.json
    python bench/run.py --workload W --seed N --seconds S --trace 0|1
                                                     one pass; the last line is one JSON object

Each workload is measured in its own fresh child process, one at a time.
See ``bench/README.md`` for the metric catalogue and how the layers interact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.child import EXPECTED_DIGESTS  # noqa: E402
from bench.compare import compare  # noqa: E402
from bench.layers import BOUNDARIES, LAYERS  # noqa: E402
from bench.metrics import COUNTERS, END_TO_END, per_layer_catalogue  # noqa: E402
from bench.workloads import DEFAULT_SEED, WORKLOADS, segments_for  # noqa: E402

#: The driver allows a run 180 s; the child is killed (and waited for) before that.
CHILD_TIMEOUT_SECONDS = 170


def measure(
    name: str, seed: int, segments: int, traced: bool, smoke: bool, expected: Optional[Path]
) -> Dict:
    """Run one workload in a fresh child interpreter and return its result."""
    command = [sys.executable, "-m", "bench.child", name, "--seed", str(seed), "--segments", str(segments)]
    command += ["--expected", str(expected)] if expected else []
    command += ["--traced"] if traced else []
    command += ["--smoke"] if smoke else []
    # ``-m`` puts the working directory (the repo root) on the path; the program is in src/.
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(path))
    # subprocess.run kills the child and waits for it when the timeout expires.
    finished = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_SECONDS, check=True,
    )
    return json.loads(finished.stdout.splitlines()[-1])


def _quartiles(samples: List[float]) -> str:
    if len(samples) < 2:
        return ""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return f"  best of n={len(samples)}; q1 {q1:.6g}, median {median:.6g}, q3 {q3:.6g}"


def report(result: Dict) -> List[str]:
    """Every metric of one workload by name, with its unit."""
    lines = [
        f"== {result['workload']}: seed {result['seed']}, {result['segments']} segment(s) x "
        f"{result['operations_per_segment']} ops; digests {result['digest_check']}",
        f"   {'end-to-end metric':<24}{'value':>14}  {'unit':<9}{'better':<8}{'bound':>6}  kind",
    ]
    values = result["end_to_end"]
    for metric in END_TO_END:
        if metric.name not in values:
            continue  # calls_per_op needs the traced pass
        kind = "exact for a seed" if metric.exact else "host" + _quartiles(
            result["samples"].get(metric.name, [])
        )
        lines.append(
            f"   {metric.name:<24}{values[metric.name]:>14.6g}  {metric.unit:<9}"
            f"{metric.better:<8}{metric.bound:>6.0%}  {kind}"
        )
    lines.append(
        f"   ops_attempted {result['ops_attempted']}  ops_failed {result['ops_failed']}  "
        f"sim_error_requests {result['sim_error_requests']}  latency samples "
        f"read {result['latency_samples']['read']} query {result['latency_samples']['query']}"
    )
    layers = result["per_layer"]
    if layers:
        total_self = sum(layers[f"{layer}.self_us_per_op"] for layer in LAYERS)
        lines.append(
            f"   per-layer, segment 0 under cProfile (trace_overhead_ratio "
            f"{layers['trace_overhead_ratio']:.3f}, self time {total_self:.1f} us/op)"
        )
        lines.append(f"   {'layer':<34}{'self_us_per_op':>15}{'share':>8}{'calls_per_op':>14}")
        for layer in LAYERS:
            self_us = layers[f"{layer}.self_us_per_op"]
            lines.append(
                f"   {layer:<34}{self_us:>15.3f}{self_us / total_self:>8.1%}"
                f"{layers[f'{layer}.calls_per_op']:>14.4f}"
            )
        lines.append(f"   {'boundary span':<34}{'calls_per_op':>15}{'incl_us_per_call':>22}")
        for stem, _functions in BOUNDARIES:
            lines.append(
                f"   {stem:<34}{layers[f'{stem}.calls_per_op']:>15.4f}"
                f"{layers[f'{stem}.incl_us_per_call']:>22.3f}"
            )
        lines.append(f"   {'counter':<42}{'value':>12}  unit")
        for name, unit, _better in COUNTERS:
            lines.append(f"   {name:<42}{layers[name]:>12.6g}  {unit}")
    lines += [f"   FAILED {failure}" for failure in result["failures"]]
    return lines


def contract_line(result: Dict, trace: int) -> str:
    """The driver's result object: gated end-to-end metrics, or the per-layer ones."""
    if trace:
        metrics = {
            entry["name"]: {"value": result["per_layer"][entry["name"]], "unit": entry["unit"]}
            for entry in per_layer_catalogue()
        }
    else:
        metrics = {
            metric.name: {"value": result["end_to_end"][metric.name], "unit": metric.unit}
            for metric in END_TO_END
            if metric.gated
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": metrics,
    })


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    names = [workload.name for workload in WORKLOADS]
    parser.add_argument("--workload", choices=names, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25,
                        help="measuring time on the reference box; one timed segment per 5 s")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed pass only; 1: one timed segment + the traced pass; "
                             "either way the last line is the driver's JSON object")
    parser.add_argument("--smoke", action="store_true", help="1 segment of 1500 ops (tests)")
    parser.add_argument("--out", type=Path, help="write the result file (input of --compare)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--update-expected", action="store_true",
                        help="pin this run's summary digests (default seed only)")
    parser.add_argument("--expected", type=Path, default=EXPECTED_DIGESTS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        lines, agree = compare(*args.compare)
        print("\n".join(lines))
        return 0 if agree else 1
    if args.trace is not None and args.workload is None:
        parser.error("--trace measures one workload: name it with --workload")
    if args.update_expected and args.seed != DEFAULT_SEED:
        parser.error(f"digests are pinned for seed {DEFAULT_SEED} only")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: the program under test is missing: {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    segments = 1 if args.smoke or args.trace == 1 else segments_for(args.seconds)
    traced = args.trace != 0
    results = {}
    for name in [args.workload] if args.workload else names:
        results[name] = measure(
            name, args.seed, segments, traced, args.smoke,
            None if args.update_expected else args.expected,
        )
        print("\n".join(report(results[name])), flush=True)
    correct = all(result["correct"] for result in results.values())

    if args.update_expected:
        with open(args.expected) as handle:
            pinned = json.load(handle)
        for name, result in results.items():
            pinned["smoke" if args.smoke else "full"][name] = result["digests"]
        with open(args.expected, "w") as handle:
            json.dump(pinned, handle, indent=2)
            handle.write("\n")
        print(f"pinned {len(results)} workloads in {args.expected}")
    if args.out:
        document = {
            "schema": 1,
            "claim": None,
            "commit": _commit(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "segments": segments,
            "smoke": args.smoke,
            "workloads": results,
        }
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    print("correctness checks: " + ("passed" if correct else "FAILED"))
    if args.trace is not None:
        print(contract_line(results[args.workload], args.trace))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
