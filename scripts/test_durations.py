#!/usr/bin/env python3
"""Tier-1 wall time and where it goes.

    python scripts/test_durations.py [--top 25]      (make test-durations)

Runs the tier-1 suite as ``make test`` does (``pytest -x -q`` with
``PYTHONPATH=src``) plus ``--durations=0 --durations-min=0``, then prints
the wall seconds of the whole run, the summed phase durations pytest
reported (setup + call + teardown of every test; the rest of the wall time
is collection and interpreter start) and the ``--top`` slowest phases.
Exit status is pytest's.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: One ``--durations`` row: ``1.23s call     tests/x.py::test_y``.
ROW = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown)\s+(\S.*)$")


def durations(output: str) -> List[Tuple[float, str, str]]:
    """Every ``(seconds, phase, test id)`` row of pytest's durations report."""
    rows = []
    for line in output.splitlines():
        match = ROW.match(line)
        if match:
            rows.append((float(match.group(1)), match.group(2), match.group(3)))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--durations=0", "--durations-min=0"]
    start = time.perf_counter()
    finished = subprocess.run(
        command, cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"), stdout=subprocess.PIPE, text=True,
    )
    wall = time.perf_counter() - start
    rows = durations(finished.stdout)
    outcome = next((line for line in reversed(finished.stdout.splitlines()) if line.strip()), "")
    print(outcome)
    print(f"wall {wall:.1f} s, summed test durations {sum(row[0] for row in rows):.1f} s "
          f"over {len(rows)} phases")
    for seconds, phase, test in sorted(rows, reverse=True)[: args.top]:
        print(f"  {seconds:7.2f} s  {phase:<8} {test}")
    return finished.returncode


if __name__ == "__main__":
    sys.exit(main())
