"""Compare two result files of ``bench/run.py --out``: one row per (workload, metric).

Verdicts: ``identical``; ``changed`` (an exact metric moved, by less than its
bound -- never expected between two runs of one commit and seed, and a
behaviour change when it is a ``sim_*`` metric); ``within-bound``; ``worse``
(beyond the bound); ``unresolved`` (a host metric whose best sample no second
sample of the same run confirms to within the bound, so "no worse" cannot be
told).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from bench.metrics import COUNTERS, END_TO_END, Metric


def _floor_gap(metric: Metric, samples: List[float]) -> float:
    """How far the run's second-best sample is from its best, as a share of the best.

    Host metrics report the best sample of a run; a second sample close to it
    is what says the floor was really reached (0 with too few samples).
    """
    if len(samples) < 2:
        return 0.0
    best, second = sorted(samples, reverse=metric.better == "higher")[:2]
    return abs(best - second) / best


def verdict(metric: Metric, before: float, after: float, gap: float) -> str:
    if before == after:
        return "identical"
    worsening = after - before if metric.better == "lower" else before - after
    if worsening > max(metric.bound * abs(before), metric.absolute):
        return "worse"
    if metric.exact:
        return "changed"
    return "unresolved" if gap > metric.bound else "within-bound"


def _exact_per_layer(per_layer: Dict[str, float]) -> Dict[str, float]:
    exact = {name for name, _unit, _better in COUNTERS}
    return {
        name: value
        for name, value in per_layer.items()
        if name in exact or name.endswith("calls_per_op")
    }


def compare(path_a: Path, path_b: Path) -> Tuple[List[str], bool]:
    """Render the comparison; the flag is False when any row is worse or unresolved."""
    with open(path_a) as handle:
        run_a = json.load(handle)
    with open(path_b) as handle:
        run_b = json.load(handle)
    lines = [
        f"A = {path_a} (commit {run_a['commit']}, seed {run_a['seed']})",
        f"B = {path_b} (commit {run_b['commit']}, seed {run_b['seed']})",
        f"{'workload':<13}{'metric':<24}{'A':>14}{'B':>14}{'delta':>9}{'bound':>7}  verdict",
    ]
    counts: Dict[str, int] = {}
    notes: List[str] = []
    for name, a in run_a["workloads"].items():
        b = run_b["workloads"].get(name)
        if b is None:
            notes.append(f"{name}: only in A")
            continue
        for metric in END_TO_END:
            if metric.name not in a["end_to_end"] or metric.name not in b["end_to_end"]:
                continue
            before, after = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            gap = max(
                _floor_gap(metric, run["samples"].get(metric.name, [])) for run in (a, b)
            )
            outcome = verdict(metric, before, after, gap)
            counts[outcome] = counts.get(outcome, 0) + 1
            delta = (after - before) / abs(before) if before else float(after != before)
            lines.append(
                f"{name:<13}{metric.name:<24}{before:>14.6g}{after:>14.6g}"
                f"{delta:>+9.2%}{metric.bound:>7.0%}  {outcome}"
            )
        notes.append(
            f"{name}: summary digests " + ("identical" if a["digests"] == b["digests"] else "DIFFER")
        )
        if a["per_layer"] and b["per_layer"]:
            exact_a, exact_b = _exact_per_layer(a["per_layer"]), _exact_per_layer(b["per_layer"])
            moved = sorted(key for key in exact_a if exact_a[key] != exact_b.get(key))
            notes.append(
                f"{name}: {len(exact_a) - len(moved)} of {len(exact_a)} exact per-layer counts identical"
                + (f"; moved: {', '.join(moved)}" if moved else "")
            )
    lines += notes
    lines.append("verdicts: " + ", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return lines, not (counts.get("worse") or counts.get("unresolved"))
