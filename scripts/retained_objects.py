#!/usr/bin/env python3
"""What one benchmark segment leaves for the cyclic collector, and what that costs.

    python scripts/retained_objects.py --workload fleet_chaos [--seed 42]

Builds segment 0 of a ``BENCHMARK.json`` workload through
``bench.workloads.build_config`` (read-only: nothing under ``bench/`` is
edited or timed here), runs it once and prints

* wall seconds of the run, the seconds spent inside the cyclic collector
  (timed with ``gc.callbacks``) and their share,
* collections per generation during the run,
* GC-tracked objects the run *retained* per operation -- a type census over
  ``gc.get_objects()`` after the run minus the census after construction,
  both taken after a full collection, with the simulator still alive and
  before any read-side accessor (``trace_spans()`` / ``history_events()``)
  has materialised anything -- for the 15 most retained types,
* from segments 1 and 2, run next under ``tracemalloc``: the bytes segment 1
  retained per operation (traced size after the run minus after
  construction, simulator alive), the bytes it leaves behind once it is
  freed (``del``, full collection) and what segment 2, freed in turn, adds
  to that -- memory a memo keeps beyond its run, as the benchmark's
  segments meet it one after another.  A run may leave its own
  record-tag memo (emptied when the next ``Simulator`` is built); what the
  next run adds is what accumulates.  Segment 0 runs untraced first, so the
  seconds carry no tracing cost.

The object and byte counts are exact for a seed on one interpreter build
and travel between machines -- the partner of the benchmark's
``peak_rss_mb``; the seconds do not.  ``make retained WORKLOAD=<name>
[SEED=42]`` is the short form.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

TOP_TYPES = 15


def type_census() -> Counter:
    """GC-tracked objects by type name, after a full collection."""
    gc.collect()
    return Counter(type(item).__qualname__ for item in gc.get_objects())


def measure(simulator) -> Dict[str, object]:
    """Run ``simulator`` once; returns wall/collector seconds, collections and the census diff."""
    before = type_census()
    collections_before = [generation["collections"] for generation in gc.get_stats()]
    collector_seconds = 0.0
    started = 0.0

    def on_gc(phase: str, _info: dict) -> None:
        nonlocal collector_seconds, started
        if phase == "start":
            started = time.perf_counter()
        else:
            collector_seconds += time.perf_counter() - started

    gc.callbacks.append(on_gc)
    try:
        start = time.perf_counter()
        simulator.run()
        wall_seconds = time.perf_counter() - start
    finally:
        gc.callbacks.remove(on_gc)
    collections = [
        generation["collections"] - earlier
        for generation, earlier in zip(gc.get_stats(), collections_before)
    ]
    retained = type_census()
    retained.subtract(before)
    return {
        "operations": simulator.total_operations,
        "wall_seconds": wall_seconds,
        "collector_seconds": collector_seconds,
        "collections": collections,
        "retained": +retained,  # drop types whose count fell
    }


def measure_bytes(first, second) -> Dict[str, int]:
    """Run two simulators, each built and freed in turn, under
    ``tracemalloc``; returns the traced bytes the first retained, what it
    left once freed and what the second added to that."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        simulator = first()
        gc.collect()
        built = tracemalloc.get_traced_memory()[0]
        simulator.run()
        gc.collect()
        after_run = tracemalloc.get_traced_memory()[0]
        del simulator
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
        second().run()
        gc.collect()
        left_by_two = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return {
        "retained": after_run - built,
        "left_behind": left - start,
        "next_run_adds": left_by_two - left,
    }


def render(workload: str, seed: int, measured: Dict[str, object]) -> List[str]:
    operations = measured["operations"]
    retained = measured["retained"]
    total = sum(retained.values())
    wall, collector = measured["wall_seconds"], measured["collector_seconds"]
    lines = [
        f"== {workload}: seed {seed}, segment 0, {operations} ops",
        f"   wall {wall:.3f} s   collector {collector:.3f} s ({collector / wall:.1%} of wall)",
        "   collections per generation: " + " / ".join(str(n) for n in measured["collections"]),
        f"   GC-tracked objects retained: {total} = {total / operations:.2f} per op",
    ]
    for name, count in retained.most_common(TOP_TYPES):
        lines.append(f"     {name:<28s} {count:>9d}  {count / operations:7.3f} /op")
    traced = measured["bytes"]
    lines += [
        "   traced bytes (tracemalloc; segment 1, then segment 2):",
        f"     retained by the run      {traced['retained']:>11d}  {traced['retained'] / operations:9.1f} /op",
        f"     left once it is freed    {traced['left_behind']:>11d}",
        f"     the next run adds        {traced['next_run_adds']:>11d}",
    ]
    return lines


def main() -> int:
    from bench.workloads import BY_NAME, build_config
    from repro.simulation import Simulator

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    operations = BY_NAME[args.workload].operations

    def build(segment: int):
        return lambda: Simulator(build_config(args.workload, args.seed, segment, operations))

    measured = measure(build(0)())
    measured["bytes"] = measure_bytes(build(1), build(2))
    print("\n".join(render(args.workload, args.seed, measured)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
