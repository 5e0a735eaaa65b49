#!/usr/bin/env python3
"""A sampled wall-clock profile of one benchmark workload, by function and by layer.

    python scripts/wall_profile.py --workload origin_bound [--seed 42]

``cProfile`` charges about a microsecond to every call it records, so its
per-layer self times lean toward the layers that make many cheap calls.
This sampler adds nothing per call: it builds the workload's segment-0
simulator (``bench/workloads.py``, its full segment budget), then, while
``Simulator.run`` executes, interrupts the process every
:data:`INTERVAL_US` microseconds of wall time
(``signal.setitimer(ITIMER_REAL)``) and walks the interrupted Python stack.
(``ITIMER_PROF`` would count CPU time instead, but the kernel delivers it
only at its scheduler tick -- 250 Hz on a common Linux build, whatever
interval is asked for -- too few samples for a run of a few seconds.)
The innermost frame's function gets a *self* sample -- time inside a C
builtin counts toward the Python function that called it, as the
benchmark's layer table books C calls -- and every distinct function and
layer on the stack an *inclusive* one.  CPython runs a signal handler at
its next check point, which is often the entry of the next function called;
a frame interrupted on its entry instruction has done nothing yet, so such
a sample is booked to its caller, whose time it was.  A layer is the ``repro`` package a
frame's module belongs to, named as in ``bench/layers.py`` (``stdlib`` for
everything outside ``repro``); generated methods (dataclass ``__init__``)
count toward their class's module.  Shares are of all samples taken during
the run.  The run is single-threaded and CPU-bound, so on an idle machine
its wall time is its CPU time.  The :data:`TOP_FUNCTIONS` functions with the
most self samples are listed.  ``make wall-profile WORKLOAD=<name> [SEED=42]``
is the short form.
"""

from __future__ import annotations

import argparse
import dis
import signal
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.layers import LAYERS  # noqa: E402
from bench.workloads import BY_NAME, DEFAULT_SEED, build_config  # noqa: E402

#: Wall time between two samples.
INTERVAL_US = 250
#: Functions listed in the report, most self samples first.
TOP_FUNCTIONS = 25


def layer_of(module: str) -> str:
    """``repro.db.documents`` -> ``db``; anything outside ``repro`` -> ``stdlib``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2 or parts[1] not in LAYERS:
        return "stdlib"
    return parts[1]


class StackSampler:
    """Self and inclusive sample counts per function and per layer."""

    def __init__(self, root) -> None:
        #: A sample counts only while this code object is on the stack: the
        #: timer is armed just before the profiled call and disarmed just
        #: after it, and a signal in between belongs to neither.
        self._root = root
        self.samples = 0
        self.function_self: Counter = Counter()
        self.function_inclusive: Counter = Counter()
        self.layer_self: Counter = Counter()
        self.layer_inclusive: Counter = Counter()
        #: Per code object: (``module:qualname``, layer, offset of ``RESUME 0``).
        self._codes: Dict[object, tuple] = {}
        #: Set while a sample is taken: the handler's own frames can be
        #: interrupted too, and such a signal is dropped.
        self._busy = False

    def _describe(self, frame) -> tuple:
        code = frame.f_code
        described = self._codes.get(code)
        if described is None:
            module = frame.f_globals.get("__name__", "?")
            entry = next(
                (op.offset for op in dis.get_instructions(code)
                 if op.opname == "RESUME" and op.arg == 0),
                -1,
            )
            described = self._codes[code] = (f"{module}:{code.co_qualname}", layer_of(module), entry)
        return described

    def sample(self, _signum, frame) -> None:
        if frame is None or self._busy:
            return
        self._busy = True
        try:
            self._record(frame)
        finally:
            self._busy = False

    def _record(self, frame) -> None:
        if frame.f_lasti == self._describe(frame)[2] and frame.f_back is not None:
            frame = frame.f_back  # noticed on entry: the time was the caller's
        name, layer, _entry = self._describe(frame)
        described = set()
        inside = False
        while frame is not None:
            described.add(self._describe(frame))
            inside = inside or frame.f_code is self._root
            frame = frame.f_back
        if not inside:
            return
        self.samples += 1
        self.function_self[name] += 1
        self.layer_self[layer] += 1
        self.function_inclusive.update(name for name, _layer, _entry in described)
        self.layer_inclusive.update({layer for _name, layer, _entry in described})

    def report(self) -> List[str]:
        total = self.samples or 1
        lines = [f"   {'layer':<14}{'self':>8}{'incl':>8}"]
        for layer in LAYERS:
            if self.layer_inclusive[layer]:
                lines.append(
                    f"   {layer:<14}{self.layer_self[layer] / total:8.1%}"
                    f"{self.layer_inclusive[layer] / total:8.1%}"
                )
        lines.append(f"   {'function':<70}{'self':>8}{'incl':>8}")
        for name, count in self.function_self.most_common(TOP_FUNCTIONS):
            lines.append(
                f"   {name:<70}{count / total:8.1%}{self.function_inclusive[name] / total:8.1%}"
            )
        return lines


def profile(workload: str, seed: int, operations: int) -> StackSampler:
    """Run ``operations`` of the workload's segment 0 under the sampler."""
    from repro.simulation import Simulator

    simulator = Simulator(build_config(workload, seed, 0, operations))
    sampler = StackSampler(Simulator.run.__code__)
    interval = INTERVAL_US / 1e6
    previous = signal.signal(signal.SIGALRM, sampler.sample)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        simulator.run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return sampler


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    operations = BY_NAME[args.workload].operations
    sampler = profile(args.workload, args.seed, operations)
    print(
        f"== {args.workload}: seed {args.seed}, {operations} ops, {sampler.samples} samples "
        f"every {INTERVAL_US} us"
    )
    print("\n".join(sampler.report()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
