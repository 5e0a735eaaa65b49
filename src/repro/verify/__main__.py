"""Run the consistency audit matrix: ``python -m repro.verify [--smoke]``.

Prints one verdict row per (scenario, guarantee) cell plus the mutation
self-test outcome, and exits non-zero if any checker reports a
violation on the unmodified system or any registered mutation goes
undetected (a vacuous harness is treated as a failure).  On a checker
violation the failing history is shrunk to its smallest witness and the
timeline is printed for debugging.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import List, Sequence

from repro.simulation.pool import map_in_processes, usable_cpus

from .checkers import run_all
from .report import render_report, shrink_first_violation
from .scenarios import ScenarioResult, ScenarioSpec, run_scenario, scenario_matrix, smoke_matrix


def _verdict_table(results: Sequence[ScenarioResult]) -> str:
    checker_names = [report.checker for report in results[0].reports] if results else []
    header = ["scenario".ljust(34), "events".rjust(6)] + [name.center(16) for name in checker_names]
    lines = ["  ".join(header)]
    lines.append("-" * len(lines[0]))
    for result in results:
        row = [result.spec.name.ljust(34), str(result.num_events).rjust(6)]
        for report in result.reports:
            verdict = "ok" if report.ok else f"{len(report.violations)} VIOLATIONS"
            row.append(f"{verdict} ({report.checked})".center(16))
        lines.append("  ".join(row))
    return "\n".join(lines)


def _mutation_table(results: Sequence[ScenarioResult]) -> str:
    lines = ["mutation self-test (every registered breach must be caught):"]
    if not results or not results[0].mutations:
        lines.append("  (skipped)")
        return "\n".join(lines)
    names = [outcome.name for outcome in results[0].mutations]
    for name in names:
        detected = sum(
            1
            for result in results
            for outcome in result.mutations
            if outcome.name == name and outcome.detected
        )
        total = sum(
            1 for result in results for outcome in result.mutations if outcome.name == name
        )
        verdict = "detected" if detected == total else "MISSED"
        lines.append(f"  {name.ljust(28)} {detected}/{total} scenarios  {verdict}")
    return "\n".join(lines)


def _explain_failure(result: ScenarioResult) -> str:
    """Shrink the failing history to its witness and render the report."""
    spec = result.spec
    simulator_events = _replay_events(spec)
    witness = shrink_first_violation(
        simulator_events,
        lambda events: run_all(events, result.delta_budget, result.degraded_budget),
    )
    return render_report(
        result.reports,
        witness=witness,
        fault_plan=spec.fault_plan(),
        scenario=spec.name,
    )


def _replay_events(spec: ScenarioSpec):
    from repro.simulation.simulator import Simulator

    simulator = Simulator(spec.build_config())
    simulator.run()
    return simulator.history_events()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Audit every consistency guarantee over recorded chaos histories.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run one representative scenario per fault archetype instead of the full matrix",
    )
    parser.add_argument(
        "--no-mutations",
        action="store_true",
        help="skip the mutation self-test (checker audit only)",
    )
    args = parser.parse_args(argv)

    specs = smoke_matrix() if args.smoke else scenario_matrix()
    for spec in specs:
        print(f"auditing {spec.name} (seed {spec.seed}) ...", flush=True)
    # The cells are independent seeded runs: audit them on every usable CPU.
    # Results come back in spec order, so the output does not depend on it.
    results: List[ScenarioResult] = map_in_processes(
        partial(run_scenario, with_mutations=not args.no_mutations),
        specs,
        num_workers=min(usable_cpus(), len(specs)),
    )

    print()
    print(_verdict_table(results))
    print()
    print(_mutation_table(results))

    failed = [result for result in results if not result.ok]
    for result in failed:
        if not result.checkers_ok:
            print()
            print(f"=== {result.spec.name}: shrinking failing history ===")
            print(_explain_failure(result))
    if failed:
        print()
        print(f"FAIL: {len(failed)}/{len(results)} scenarios failed the audit")
        return 1
    print()
    print(f"PASS: {len(results)} scenarios, zero violations, all mutations detected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
