#!/usr/bin/env python3
"""Function-level census: which defs under ``src/repro`` does no entry point call?

A report, not a gate.  ``sys.setprofile`` records the code object of every
Python frame entered while the repository's non-test entry points run in
this process:

* the four benchmark workloads at smoke size (``bench.child.run_workload``);
* ``python -m repro.verify --smoke`` and ``python -m repro.obs --smoke``;
* the fast examples the test suite runs (``FAST_EXAMPLES`` in
  ``tests/test_examples.py``);
* every figure harness in ``repro.benchmarks`` at a toy scale;
* a four-partition ``ParallelSimulator`` run.

Every ``def`` under ``src/repro`` (found by parsing the source) whose code
was never entered is then listed under its module with the lines of its
body, modules ordered by uncalled body lines.  A
function only the tests call shows up here; so do protocol hooks no run
exercises (``__repr__``, ``__getstate__``) -- read the list, do not trust it.

**Blind spot.**  Code that runs in a spawned worker process is invisible to
this process's profiler.  The census pins itself to one CPU, so every
process pool in the repository (``repro.simulation.pool.map_in_processes``)
maps its jobs in this process instead; what remains unseen is only the pool's
own multi-worker branch.

Run: ``PYTHONPATH=src python scripts/unused_functions.py`` (``make
unused-functions``).
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

#: ``(file, first line)`` of every code object entered while profiling.
Seen = Set[Tuple[str, int]]


def _fast_examples() -> List[str]:
    """``FAST_EXAMPLES`` from the example smoke test, its one source of truth."""
    tree = ast.parse((ROOT / "tests" / "test_examples.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "FAST_EXAMPLES"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_examples.py defines no FAST_EXAMPLES")


def _workloads() -> None:
    from bench.child import run_workload
    from bench.workloads import WORKLOADS

    for workload in WORKLOADS:
        run_workload(workload.name, segments=1, smoke=True)


def _verify() -> None:
    from repro.verify.__main__ import main

    if main(["--smoke"]) != 0:
        raise RuntimeError("python -m repro.verify --smoke failed")


def _obs() -> None:
    from repro.obs.__main__ import main

    with tempfile.TemporaryDirectory() as out:
        if main(["--smoke", "--out", out]) != 0:
            raise RuntimeError("python -m repro.obs --smoke failed")


def _examples() -> None:
    for script in _fast_examples():
        runpy.run_path(str(ROOT / "examples" / script), run_name="__main__")


def _figures() -> List[Tuple[str, Callable[[], None]]]:
    """One entry point per figure harness, each at a toy scale it accepts."""
    from repro.benchmarks import (
        ablations, cluster_scaling, figure1, figure8, figure9, figure10, figure11,
        figure12, table1,
    )
    from repro.benchmarks.harness import SMALL_SCALE

    toy = replace(
        SMALL_SCALE,
        name="census",
        documents_per_table=300,
        queries_per_table=20,
        connection_steps=[12, 20, 40],  # harnesses pick steps [2] and [-3]
        num_clients=4,
        max_operations=600,
        duration=60.0,
        query_count_steps=[20, 40],
        document_count_steps=[300, 600],
        matching_nodes=2,
    )
    runs: List[Tuple[str, Callable[[], None]]] = [
        (harness.__name__, partial(harness, scale=toy))
        for harness in (
            figure8.run_figure8_throughput, figure8.run_figure8_read_latency,
            figure8.run_figure8_query_latency, figure8.run_figure8_query_count,
            figure8.run_figure8_hit_rates, figure8.run_figure8_histogram,
            figure9.run_figure9, figure11.run_figure11, table1.run_table1,
            ablations.run_ttl_estimator_ablation, ablations.run_representation_ablation,
            ablations.run_refresh_interval_ablation,
        )
    ]
    return runs + [
        ("run_figure1", figure1.run_figure1),
        ("run_figure10", partial(
            figure10.run_figure10, scale=toy, refresh_intervals=[1.0, 10.0], client_counts=[4]
        )),
        ("run_figure12", partial(figure12.run_figure12, node_counts=[1, 2], micro_events=200)),
        ("run_cluster_scaling", partial(
            cluster_scaling.run_cluster_scaling, scale=toy, shard_counts=(1, 2), connections=40
        )),
    ]


def _parallel() -> None:
    from repro.simulation import ParallelSimulator
    from repro.simulation.parallel import parity_config
    from repro.simulation.simulator import CachingMode

    config = replace(parity_config(CachingMode.QUAESTOR, 3, num_partitions=4), record_history=True)
    ParallelSimulator(config, num_partitions=4).run()


def entry_points() -> List[Tuple[str, Callable[[], None]]]:
    return [
        ("benchmark workloads (smoke)", _workloads),
        ("python -m repro.verify --smoke", _verify),
        ("python -m repro.obs --smoke", _obs),
        ("FAST_EXAMPLES", _examples),
        *_figures(),
        ("ParallelSimulator, 4 partitions", _parallel),
    ]


def census() -> Tuple[Seen, List[Tuple[str, float, str]]]:
    """Run every entry point under the profiler; returns what ran and how each went."""
    seen: Seen = set()
    prefix = str(SOURCE)

    def profile(frame, event, _arg) -> None:
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                seen.add((code.co_filename, code.co_firstlineno))

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runs = []
    for name, entry_point in entry_points():
        start = time.perf_counter()
        outcome = "ok"
        sys.setprofile(profile)
        try:
            quiet = io.StringIO()
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                entry_point()
        except Exception as error:  # a crashed entry point is reported, not fatal
            where = traceback.extract_tb(error.__traceback__)[-1]
            outcome = f"crashed at {where.filename}:{where.lineno}: {error!r}"
        finally:
            sys.setprofile(None)
        runs.append((name, time.perf_counter() - start, outcome))
    return seen, runs


def defs(path: Path) -> List[Tuple[str, int, int]]:
    """``(qualified name, code first line, body lines)`` of every def in ``path``."""
    found: List[Tuple[str, int, int]] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}{child.name}"
                # A decorated function's code starts at its first decorator.
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((name, first, child.end_lineno - child.lineno + 1))
                visit(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.")
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def main() -> int:
    started = time.perf_counter()
    seen, runs = census()
    for name, seconds, outcome in runs:
        print(f"{name:<34} {seconds:7.1f} s  {outcome}")
    print(f"{'census total':<34} {time.perf_counter() - started:7.1f} s")
    print()

    rows = []
    total_defs = total_uncalled = total_lines = 0
    for path in sorted(SOURCE.rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE.parent).with_suffix("").parts)
        found = defs(path)
        uncalled = [(name, lines) for name, first, lines in found if (str(path), first) not in seen]
        total_defs += len(found)
        total_uncalled += len(uncalled)
        total_lines += sum(lines for _, lines in uncalled)
        if uncalled:
            rows.append((sum(lines for _, lines in uncalled), module, len(found), uncalled))
    print(f"{'module':<44} {'uncalled defs':>14} {'body lines':>11}")
    for lines, module, count, uncalled in sorted(rows, key=lambda row: (-row[0], row[1])):
        print(f"{module:<44} {len(uncalled):>6} / {count:<5} {lines:>11}")
        for name, body in uncalled:
            print(f"    {name} ({body})")
    print(
        f"\n{total_uncalled} of {total_defs} defs under src/repro never called "
        f"({total_lines} body lines); blind spot: code that only runs in a spawned worker"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
