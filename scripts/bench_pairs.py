#!/usr/bin/env python3
"""Paired benchmark runs: a parent commit against the working tree.

    python scripts/bench_pairs.py --parent <ref> --workload read_hot [--pairs 10] [--seed 1234]
                                  [--metric host_ops_per_s] [--parent-checkout DIR]

The procedure a performance claim rests on (``bench/README.md``, "Landing a
change"): the parent is checked out into a temporary ``git worktree`` (or
taken from ``--parent-checkout``, a clone or archive of it), each pair runs
the *unmodified* ``bench/run.py --trace 0`` of either side once --
alternating which side goes first, because the box's noise drifts over
minutes -- and the report gives, per side, the median, quartiles and n of
the claimed metric (``--metric``, default ``host_ops_per_s``; any end-to-end
metric ``BENCHMARK.json`` declares), the wins, the parent's interquartile
spread, a verdict, each host metric's ratio of medians against its
``BENCHMARK.json`` bound, and whether every exact ``sim_*`` value was
identical in every pair (a host-only change must not move one).

The verdict is GAIN when the change won >= 9/10 of the decided pairs and its
median is better than the parent's by more than the parent's IQR, LOSS when
the same holds the other way round, and FLAT otherwise; "better" is the
metric's declared direction (``setup_s`` wins by falling).  A bound line reads
"within" when the change's median is no worse than the parent's by more
than the metric's bound -- the rows a "must not move" control is read off.
Exit status 0 means the verdict is GAIN and nothing simulated moved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


#: The end-to-end metrics ``BENCHMARK.json`` declares, by name (read only).
DECLARED = {
    entry["name"]: entry
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


def run_once(checkout: Path, workload: str, seed: int) -> Dict[str, float]:
    """One timed pass of ``checkout``'s own benchmark; returns its gated metrics."""
    finished = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(finished.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout}: benchmark reported failed operations or checks")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def describe(samples: List[float]) -> str:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return f"median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(samples)}"


def wins(before: List[float], after: List[float], better: str = "higher") -> int:
    """Pairs in which ``after`` beat ``before``; ``better`` is the metric's
    declared direction, ``"higher"`` or ``"lower"``."""
    if better == "lower":
        return sum(new < old for old, new in zip(before, after))
    return sum(new > old for old, new in zip(before, after))


def verdict(before: List[float], after: List[float], better: str = "higher") -> str:
    """GAIN / LOSS: one side won >= 9/10 of the decided pairs and the medians
    differ by more than the parent's IQR in its favour; FLAT otherwise."""
    won, lost = wins(before, after, better), wins(after, before, better)
    decided = won + lost
    q1, parent_median, q3 = statistics.quantiles(before, n=4)
    gap = statistics.median(after) - parent_median
    if better == "lower":
        gap = -gap
    if won * 10 >= decided * 9 and gap > q3 - q1:
        return "GAIN"
    if lost * 10 >= decided * 9 and -gap > q3 - q1:
        return "LOSS"
    return "FLAT"


def bound_line(name: str, before: List[float], after: List[float]) -> str:
    """The ratio of medians next to the metric's declared bound."""
    declared = DECLARED[name]
    ratio = statistics.median(after) / statistics.median(before)
    worse_by = ratio - 1.0 if declared["better"] == "lower" else 1.0 - ratio
    status = "within" if worse_by <= declared["bound"] else "OUTSIDE"
    return (
        f"  {name}: ratio of medians {ratio:.3f}x ({declared['better']} is better), "
        f"bound {declared['bound']:.0%}: {status}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--metric", default="host_ops_per_s", choices=sorted(DECLARED))
    parser.add_argument(
        "--parent-checkout", type=Path,
        help="an existing checkout of --parent (a git clone or archive) to run instead of "
        "a temporary git worktree",
    )
    args = parser.parse_args()
    metric, better = args.metric, DECLARED[args.metric]["better"]
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")

    parent: List[Dict[str, float]] = []
    change: List[Dict[str, float]] = []

    def run_pairs(parent_dir: Path) -> None:
        for pair in range(args.pairs):
            order = [(parent_dir, parent), (ROOT, change)]
            if pair % 2:
                order.reverse()
            for checkout, sink in order:
                sink.append(run_once(checkout, args.workload, args.seed))
            print(
                f"pair {pair + 1:>2}/{args.pairs} ({'change' if pair % 2 else 'parent'} first): "
                f"parent {parent[-1][metric]:.6g}  change {change[-1][metric]:.6g}",
                flush=True,
            )

    if args.parent_checkout is not None:
        run_pairs(args.parent_checkout.resolve())
    else:
        with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
            parent_dir = Path(scratch) / "parent"
            subprocess.run(
                ["git", "worktree", "add", "--detach", str(parent_dir), args.parent],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
            )
            try:
                run_pairs(parent_dir)
            finally:
                subprocess.run(
                    ["git", "worktree", "remove", "--force", str(parent_dir)], cwd=ROOT, check=False
                )

    before = [run[metric] for run in parent]
    after = [run[metric] for run in change]
    won = wins(before, after, better)
    ties = sum(new == old for old, new in zip(before, after))
    q1, parent_median, q3 = statistics.quantiles(before, n=4)
    change_median = statistics.median(after)
    gap = change_median - parent_median
    moved = sorted({
        name
        for old, new in zip(parent, change)
        for name in old
        if name.startswith("sim_") and old[name] != new.get(name)
    })
    outcome = verdict(before, after, better)

    print(f"\n{args.workload} {metric} ({better} is better), seed {args.seed}, {args.pairs} alternating pairs")
    print(f"  parent ({args.parent}): {describe(before)}")
    print(f"  change (working tree): {describe(after)}")
    print(f"  ratio of medians {change_median / parent_median:.3f}x   wins {won}/{args.pairs - ties}"
          f"   parent IQR {q3 - q1:.6g}   median gap {gap:.6g}")
    print(f"  verdict: {outcome} (GAIN / LOSS: >= 9/10 pairs won / lost and |gap| > parent IQR)")
    host = [name for name in parent[0] if not name.startswith("sim_")]
    for name in host:
        if name != metric:
            print(f"  {name}: parent {describe([run[name] for run in parent])}")
            print(f"  {' ' * len(name)}  change {describe([run[name] for run in change])}")
    for name in host:
        print(bound_line(name, [run[name] for run in parent], [run[name] for run in change]))
    print(f"  sim_* metrics: {'identical in every pair' if not moved else 'MOVED: ' + ', '.join(moved)}")
    return 0 if outcome == "GAIN" and not moved else 1


if __name__ == "__main__":
    sys.exit(main())
