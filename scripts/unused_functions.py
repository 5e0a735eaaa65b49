#!/usr/bin/env python3
"""Function census gate: every def under ``src/repro`` must earn its place.

A profiler records the code object of every Python frame entered while the
repository's entry points run in this process:

* the four benchmark workloads at smoke size (``bench.child.run_workload``);
* ``python -m repro.verify --smoke`` and ``python -m repro.obs --smoke``;
* the fast examples the test suite runs (``FAST_EXAMPLES`` in
  ``tests/test_examples.py``);
* every figure harness in ``repro.benchmarks`` at a toy scale;
* the behaviour pins (``PIN_TESTS``: the golden and byte-identity tests, and
  the exact pins of the replication drills and the resilience chaos grid);
* a four-shard RF 3 run with a crash/recover fault plan and every recorder
  on (a primary resumes with a backlog it never applied);
* one causal cell of the full consistency matrix (``python -m repro.verify``
  without ``--smoke``, its own CI job);
* a failover that loses acknowledged writes: one shard at RF 2 under a
  write-heavy mix and a 0.5 s replication lag, its primary crashed (the
  entry point fails unless the promotion lost a record).

Every ``def`` under ``src/repro`` (found by parsing the source) then falls
into one of three classes:

* *reached*: an entry point entered its code;
* *exempt*: a declaration with no behaviour of its own -- a dunder protocol
  hook (``__repr__``, ``__len__``, ...), an ``abstractmethod`` or a member
  of a ``Protocol`` class;
* *allowlisted*: ``scripts/unused_allowlist.txt`` names it, its class or its
  module, with one reason from ``REASONS``.

Anything else fails the gate, listed as ``module:qualname`` with its body
lines; so does a *stale* allowlist entry, one that covers no unreached def (it is
reached now, or it no longer exists).

The census also lists the defs that no entry point but the behaviour pins
reaches.  Such a def is kept alive by a golden alone, which makes it a
candidate for deletion together with its pin.  The *pin machinery*
(``PIN_MACHINERY``: the helpers the goldens hash with and the reference forms
the golden vectors pin) is listed apart and not counted.  The gate fails
when the count exceeds ``PINS_ONLY_CEILING``, which a change may lower but
never raise.  Exits 0 only when nothing is unlisted, stale, crashed or over
the ceiling.

The entry points run in up to two spawned census processes, each pinned to
one CPU, and the sets of entered code objects are merged.

**Blind spot.**  Code that runs in a process the repository itself spawns is
invisible to the census.  A census process has one CPU, so every process
pool in the repository (``repro.simulation.pool.map_in_processes``) maps its
jobs in that process instead; what remains unseen is only the pool's own
multi-worker branch.

Run: ``PYTHONPATH=src python scripts/unused_functions.py`` (``make
unused-functions``).
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import multiprocessing
import os
import runpy
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
ALLOWLIST = ROOT / "scripts" / "unused_allowlist.txt"
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

#: The closed set of reasons an allowlist entry may give.
REASONS = {
    "bench": "the frozen bench/ names it",
    "producer": "only a benchmarks/ pytest benchmark, or a caller CHANGES.md names as missing",
    "safety": "a recovery, validation or failure-report path no smoke reaches",
    "language": "a Mongo-style operator, checked against tests/db/reference_predicates.py",
}

#: The behaviour pins: tests whose goldens fix bytes, responses or summaries.
PIN_TESTS = (
    "tests/bloom/test_golden_vectors.py",
    "tests/cluster/test_fleet_path_golden.py",
    "tests/core/test_read_path.py::TestGoldenEquivalence",
    "tests/obs/test_recorder_goldens.py",
    "tests/obs/test_statistics_golden.py",
    "tests/replication/test_scaleout_and_drills.py",
    "tests/resilience/test_chaos_smoke.py::TestChaosGrid",
    "tests/simulation/test_golden_summary.py",
    "tests/ttl/test_ttl_golden_vectors.py",
)
#: The entry point that runs :data:`PIN_TESTS`.
PINS = "behaviour pins"

#: Defs that exist for the pins themselves: the canonical-bytes helpers the
#: goldens hash, and the reference forms the Bloom golden vectors pin.
PIN_MACHINERY = frozenset({
    "repro.obs.registry:_canonical",
    "repro.obs.registry:canonical_metrics_bytes",
    "repro.obs.trace:canonical_trace_bytes",
    "repro.verify.history:canonical_bytes",
    "repro.bloom.hashing:hash_pair",
    "repro.bloom.hashing:positions",
})

#: Most defs the behaviour pins alone may reach, pin machinery aside.  Lower
#: it when a def leaves the list; never raise it.  The 15 today, by reason:
#:
#: * the Bloom wire format and bulk helpers (9): ``BloomFilter.add`` /
#:   ``add_all`` / ``contains_all`` / ``from_bytes`` / ``iter_set_bits`` /
#:   ``to_bytes`` and ``CountingBloomFilter.add_all`` / ``counter`` /
#:   ``nonzero_slots`` -- a client refresh hands over the filter object, so
#:   the bytes exist only for the golden vectors (a decision still open);
#: * degraded serving (3): ``StaleIfErrorPolicy.may_serve`` and the
#:   ``QuaestorClient.now`` / ``CacheEntry.fresh_until`` it reads -- no
#:   smoke-size run serves a stale-if-error read;
#: * ``QuaestorCluster.delete`` -- no fleet workload deletes;
#: * ``ReplicaGroup._coerce_level`` -- only a replica read that names its
#:   consistency by ``None`` or by value, which the fleet never sends;
#: * ``compile_criteria.match_all`` -- a filter of two or more clauses,
#:   which no workload sends.
PINS_ONLY_CEILING = 15


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
            figure8.run_figure8_connection_sweep, figure8.run_figure8_query_count_sweep,
            figure8.run_figure8_histogram,
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


def _pins() -> None:
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", *(str(ROOT / pin) for pin in PIN_TESTS)])
    if code != 0:
        raise RuntimeError(f"the behaviour pins failed (pytest exit {code})")


def _sharded_faults() -> None:
    from repro.faults import FaultAction, FaultEvent, FaultPlan
    from repro.obs import ObservabilityConfig
    from repro.simulation import CachingMode, SimulationConfig, Simulator
    from repro.workloads import DatasetSpec, WorkloadSpec

    plan = FaultPlan(
        events=[
            FaultEvent(0.02, FaultAction.CRASH, "shard:0"),
            FaultEvent(0.03, FaultAction.CRASH, "s3:n1"),
            FaultEvent(0.12, FaultAction.RECOVER, "shard:0"),
            FaultEvent(0.13, FaultAction.RECOVER, "s3:n1"),
        ],
        name="census-faults",
    )
    config = SimulationConfig(
        mode=CachingMode.QUAESTOR,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(num_tables=4, documents_per_table=120, queries_per_table=12),
        num_clients=4,
        connections_per_client=25,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=30.0,
        max_operations=800,
        seed=42,
        num_shards=4,
        replication_factor=3,
        record_history=True,
        observability=ObservabilityConfig.full(),
        fault_plan=plan,
    )
    simulator = Simulator(config)
    simulator.run()
    simulator.history_events()


def _causal_cell() -> None:
    from repro.core.consistency import ConsistencyLevel
    from repro.verify.scenarios import run_scenario, scenario_matrix

    spec = next(
        spec
        for spec in scenario_matrix()
        if spec.consistency is ConsistencyLevel.CAUSAL and spec.replication_factor == 3
    )
    result = run_scenario(spec, with_mutations=False)
    if not result.checkers_ok:
        raise RuntimeError(f"the consistency cell {spec.name} found violations")


def _failover_loss() -> None:
    from repro.faults import FaultPlan
    from repro.simulation import (
        CachingMode, LatencyModel, NetworkTopology, SimulationConfig, Simulator,
    )
    from repro.workloads import DatasetSpec, WorkloadSpec

    config = SimulationConfig(
        mode=CachingMode.QUAESTOR,
        workload=WorkloadSpec.with_update_rate(0.5),
        dataset=DatasetSpec(num_tables=1, documents_per_table=100, queries_per_table=10),
        num_clients=4,
        connections_per_client=4,
        matching_nodes=1,
        duration=10.0,
        warmup_fraction=0.0,
        max_operations=600,
        seed=5,
        num_shards=1,
        replication_factor=2,
        # Writes acknowledged in the last half second before the crash are
        # still on the link when the replica is promoted.
        topology=NetworkTopology(replication_lag=LatencyModel(0.5, jitter=0.1, minimum=0.001)),
        fault_plan=FaultPlan.primary_crash(shard=0, at=1.0, recover_at=3.0),
    )
    simulator = Simulator(config)
    simulator.run()
    if not any(info["lost_records"] for info in simulator.cluster.groups[0].promotions):
        raise RuntimeError("the failover lost no acknowledged write")


def entry_points() -> List[Tuple[str, Callable[[], None]]]:
    """Every entry point, the longest first (the census hands them out in order)."""
    return [
        ("python -m repro.verify --smoke", _verify),
        ("benchmark workloads (smoke)", _workloads),
        ("python -m repro.obs --smoke", _obs),
        ("FAST_EXAMPLES", _examples),
        *_figures(),
        (PINS, _pins),
        ("4 shards x RF 3 + faults", _sharded_faults),
        ("causal consistency cell", _causal_cell),
        ("failover losing acknowledged writes", _failover_loss),
    ]


def _pin_to_one_cpu(cpus) -> None:
    """Pool initializer: one CPU per census process, so that every process
    pool in the repository (``repro.simulation.pool``) maps in-process."""
    cpu = cpus.get()
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def _profile(index: int) -> Tuple[Set[Tuple[str, int]], Tuple[str, float, str]]:
    """Run entry point ``index`` under the profiler: the ``(file, first line)``
    of every code object under ``src/repro`` it entered, and how it went."""
    name, entry_point = entry_points()[index]
    # cProfile's C hook, without builtin calls or caller edges: the cheapest
    # way to learn every code object entered.
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    start = time.perf_counter()
    outcome = "ok"
    profiler.enable()
    try:
        quiet = io.StringIO()
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            entry_point()
    except Exception as error:  # a crashed entry point is reported, and fails the gate
        where = traceback.extract_tb(error.__traceback__)[-1]
        outcome = f"crashed at {where.filename}:{where.lineno}: {error!r}"
    finally:
        profiler.disable()
    prefix = str(SOURCE)
    seen = {
        (entry.code.co_filename, entry.code.co_firstlineno)
        for entry in profiler.getstats()
        if not isinstance(entry.code, str) and entry.code.co_filename.startswith(prefix)
    }
    return seen, (name, time.perf_counter() - start, outcome)


def census() -> List[Tuple[Set[Tuple[str, int]], Tuple[str, float, str]]]:
    """Run every entry point under the profiler, in up to two processes of
    one CPU each; returns, per entry point in order, the ``(file, first
    line)`` of every code object under ``src/repro`` it entered, and how it
    went."""
    cpus = sorted(os.sched_getaffinity(0))[:2] if hasattr(os, "sched_setaffinity") else [None]
    context = multiprocessing.get_context("spawn")
    queue = context.Queue()
    for cpu in cpus:
        queue.put(cpu)
    with context.Pool(len(cpus), initializer=_pin_to_one_cpu, initargs=(queue,)) as pool:
        return list(pool.imap(_profile, range(len(entry_points())), chunksize=1))


def _named(node: ast.expr, name: str) -> bool:
    """Whether ``node`` spells ``name`` or ``<module>.name``."""
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def defs(source: str) -> List[Tuple[str, int, int, bool]]:
    """``(qualified name, code first line, body lines, exempt)`` of every def
    in ``source``; ``exempt`` marks the declarations the gate never asks about."""
    found: List[Tuple[str, int, int, bool]] = []

    def visit(node: ast.AST, scope: str, in_protocol: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}{child.name}"
                # A decorated function's code starts at its first decorator.
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                exempt = (
                    is_dunder(name)
                    or in_protocol
                    or any(_named(d, "abstractmethod") for d in child.decorator_list)
                )
                found.append((name, first, child.end_lineno - child.lineno + 1, exempt))
                visit(child, f"{name}.", False)
            elif isinstance(child, ast.ClassDef):
                protocol = any(_named(base, "Protocol") for base in child.bases)
                visit(child, f"{scope}{child.name}.", protocol)
            else:
                visit(child, scope, in_protocol)

    visit(ast.parse(source), "", False)
    return found


def read_allowlist(text: str) -> Dict[str, str]:
    """``{target: reason}`` from the allowlist's ``<target> <reason>`` lines
    (``#`` starts a comment).  A target is a module (``repro.db.updates``),
    a class or a def (``repro.replication.group:ReplicaGroup.promote``)."""
    entries: Dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), 1):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 2 or fields[1] not in REASONS or fields[0] in entries:
            raise SystemExit(
                f"{ALLOWLIST.name}:{number}: expected '<target> <reason>' with one "
                f"reason from {sorted(REASONS)}, each target once; got {line.strip()!r}"
            )
        entries[fields[0]] = fields[1]
    return entries


def is_dunder(qualified_name: str) -> bool:
    name = qualified_name.rpartition(".")[2]
    return name.startswith("__") and name.endswith("__")


def _covers(entry: str, target: str) -> bool:
    """Whether allowlist ``entry`` names ``target`` (``module:qualname``)."""
    if ":" not in entry:
        return target.partition(":")[0] == entry
    return target == entry or target.startswith(entry + ".")


def classify(
    modules: Dict[str, Iterable[Tuple[str, int, int, bool]]],
    reached: Set[str],
    allowlist: Dict[str, str],
) -> Tuple[List[Tuple[str, int]], List[str]]:
    """The gate's verdict.

    ``modules`` maps a module to its :func:`defs`, ``reached`` holds the
    ``module:qualname`` of every def an entry point entered.  Returns the
    unreached defs that are neither exempt nor allowlisted, as
    ``(module:qualname, body lines)``, and the stale allowlist entries:
    those that cover no unreached, non-exempt def.
    """
    unlisted: List[Tuple[str, int]] = []
    used: Set[str] = set()
    for module, found in modules.items():
        for name, _first, lines, exempt in found:
            target = f"{module}:{name}"
            if exempt or target in reached:
                continue
            covering = [entry for entry in allowlist if _covers(entry, target)]
            if covering:
                used.update(covering)
            else:
                unlisted.append((target, lines))
    return unlisted, [entry for entry in allowlist if entry not in used]


def reached_only_by(entered: Dict[str, Set[str]], name: str) -> List[str]:
    """The defs entry point ``name`` reached and no other did, sorted;
    ``entered`` maps each entry point to the ``module:qualname`` of every
    def it entered."""
    others = set().union(*(found for entry, found in entered.items() if entry != name))
    return sorted(entered.get(name, set()) - others)


def pins_only(entered: Dict[str, Set[str]]) -> Tuple[List[str], List[str]]:
    """The defs only the behaviour pins reach, split into those the ceiling
    counts and the pin machinery, each sorted."""
    found = reached_only_by(entered, PINS)
    return (
        [target for target in found if target not in PIN_MACHINERY],
        [target for target in found if target in PIN_MACHINERY],
    )


def over_ceiling(pinned_only: List[str]) -> bool:
    """Whether more defs than :data:`PINS_ONLY_CEILING` are pins-only."""
    return len(pinned_only) > PINS_ONLY_CEILING


def main() -> int:
    allowlist = read_allowlist(ALLOWLIST.read_text())
    started = time.perf_counter()
    results = census()
    runs = [run for _seen, run in results]
    for name, seconds, outcome in runs:
        print(f"{name:<40} {seconds:7.1f} s  {outcome}")
    print(f"{'census total':<40} {time.perf_counter() - started:7.1f} s")
    print()

    modules: Dict[str, List[Tuple[str, int, int, bool]]] = {}
    # ``(file, code first line)`` -> ``module:qualname`` of every def.
    targets: Dict[Tuple[str, int], str] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE.parent).with_suffix("").parts)
        modules[module] = defs(path.read_text())
        for name, first, _lines, _exempt in modules[module]:
            targets[(str(path), first)] = f"{module}:{name}"
    entered = {
        name: {targets[code] for code in seen if code in targets}
        for seen, (name, _seconds, _outcome) in results
    }
    reached: Set[str] = set().union(*entered.values())
    unlisted, stale = classify(modules, reached, allowlist)
    total = sum(len(found) for found in modules.values())
    print(
        f"{len(reached)} of {total} defs under src/repro reached; "
        f"{len(allowlist)} allowlist entries"
    )
    for target, lines in unlisted:
        print(f"unreached and not allowlisted: {target} ({lines} lines)")
    for entry in stale:
        print(f"stale allowlist entry (reached, or gone): {entry} {allowlist[entry]}")
    pinned_only, machinery = pins_only(entered)
    print(
        f"{len(pinned_only)} defs only the {PINS} reach "
        f"(ceiling {PINS_ONLY_CEILING}; pin machinery apart):"
    )
    for target in pinned_only:
        print(f"  {target}")
    print(f"{len(machinery)} defs of pin machinery:")
    for target in machinery:
        print(f"  {target}")
    crashed = [name for name, _seconds, outcome in runs if outcome != "ok"]
    failed = bool(unlisted or stale or crashed or over_ceiling(pinned_only))
    if failed:
        print(
            f"unused-functions: FAIL ({len(unlisted)} unlisted, {len(stale)} stale, "
            f"{len(crashed)} crashed entry points, {len(pinned_only)} pins-only defs "
            f"against a ceiling of {PINS_ONLY_CEILING})"
        )
    else:
        print("unused-functions: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
