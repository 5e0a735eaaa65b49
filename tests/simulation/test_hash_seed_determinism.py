"""Seeded runs do not depend on Python's string-hash salt.

Several hot paths memoise by ``str`` key (the Bloom probe memo, the cache
maps, the prepared query results).  Dict iteration follows insertion order,
never the hash, so a run must produce the same summary whatever
``PYTHONHASHSEED`` the interpreter started with.  Each hash seed runs in its
own interpreter; the benchmark's pinned smoke digests (read, not written)
anchor both runs to the recorded outcome.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("read_hot", "fleet_chaos")

_RUN = """
import hashlib, json, sys
from bench.workloads import SMOKE_OPERATIONS, build_config
from repro.simulation import Simulator

digests = {}
for name in sys.argv[1:]:
    summary = Simulator(build_config(name, 42, 0, SMOKE_OPERATIONS)).run().summary()
    text = json.dumps(summary, sort_keys=True).encode()
    digests[name] = hashlib.sha256(text).hexdigest()[:16]
print(json.dumps(digests))
"""


def _digests(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    finished = subprocess.run(
        [sys.executable, "-c", _RUN, *WORKLOADS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(finished.stdout.strip().splitlines()[-1])


def test_summary_digests_are_identical_under_two_hash_seeds():
    zero, one = _digests("0"), _digests("1")
    assert zero == one
    with open(ROOT / "bench" / "expected" / "digests.json") as handle:
        pinned = json.load(handle)["smoke"]
    assert zero == {name: pinned[name][0] for name in WORKLOADS}
