"""Read-for-read differential: the offline Δ-checker against the online auditor.

The online verdict is the simulator's own ``auditor.audit_read``, wrapped here
to capture every call together with the seq its operation row is about to
get.  The offline verdict is :func:`~repro.verify.checkers.check_delta_atomicity`
replaying a fresh :class:`StalenessAuditor` over the recorded log, its
``audit_read`` calls captured the same way.  Every read or query the
simulator audited must get the identical verdict -- seconds superseded, or
``None`` for fresh -- from the replay.

The default run covers the four benchmark workloads at one seed.  The
``slow_chaos`` run widens that to 24 seeds each, all 16 verify-matrix cells
and a two-worker partitioned run, whose merged log must replay to the union
of its partitions' verdicts.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import pytest

from repro.client.sdk import ERROR_LEVEL
from repro.simulation import ParallelSimulator, Simulator
from repro.simulation.staleness import StalenessAuditor
from repro.verify.checkers import check_delta_atomicity
from repro.verify.history import KIND_OPERATION, HistoryEvent, events_from_tuples
from repro.verify.scenarios import scenario_matrix

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import SMOKE_OPERATIONS, WORKLOADS, build_config  # noqa: E402

#: ``(key, token, invoked, verdict)`` of one audited read, keyed by its seq.
Verdicts = Dict[int, Tuple[str, str, float, Optional[float]]]


def _workload_config(name: str, seed: int):
    return replace(build_config(name, seed, 0, SMOKE_OPERATIONS), record_history=True)


def online_verdicts(config, monkeypatch) -> Tuple[Tuple[HistoryEvent, ...], Verdicts]:
    """Run ``config`` and capture every verdict the simulator's auditor gave.

    The simulator binds its auditor's ``audit_read`` when it is built, so the
    capture is in place from construction to the end of the run.
    """
    audit_read = StalenessAuditor.audit_read
    verdicts: Verdicts = {}

    def captured(self, key, token, at):
        verdict = audit_read(self, key, token, at)
        # The operation row is recorded right after its audit.
        verdicts[len(simulator.history)] = (key, token, at, verdict)
        return verdict

    with monkeypatch.context() as patch:
        patch.setattr(StalenessAuditor, "audit_read", captured)
        simulator = Simulator(config)
        simulator.run()
    return simulator.history_events(), verdicts


def replayed_verdicts(events: Sequence[HistoryEvent], monkeypatch) -> Verdicts:
    """The verdict ``check_delta_atomicity`` gave every read or query it scored."""
    scored = []
    audit_read = StalenessAuditor.audit_read

    def captured(self, key, token, at):
        verdict = audit_read(self, key, token, at)
        scored.append(verdict)
        return verdict

    with monkeypatch.context() as patch:
        patch.setattr(StalenessAuditor, "audit_read", captured)
        report = check_delta_atomicity(events, delta_budget=float("inf"))
    checked = [
        event
        for event in events
        if event.kind == KIND_OPERATION
        and event.op in ("read", "query")
        and event.etag is not None
        and event.level != ERROR_LEVEL
    ]
    assert len(checked) == len(scored) == report.checked
    return {
        event.seq: (event.key, event.etag, event.invoked, verdict)
        for event, verdict in zip(checked, scored)
    }


def assert_one_verdict(config, monkeypatch) -> int:
    """Online and replayed verdicts agree read for read; returns the reads compared."""
    events, online = online_verdicts(config, monkeypatch)
    replayed = replayed_verdicts(events, monkeypatch)
    assert online, "the run audited no reads"
    mismatches = [
        (seq, verdict, replayed.get(seq))
        for seq, verdict in online.items()
        if replayed.get(seq) != verdict
    ]
    assert not mismatches, f"{len(mismatches)} of {len(online)} reads differ: {mismatches[:5]}"
    return len(online)


@pytest.mark.parametrize("name", [workload.name for workload in WORKLOADS])
def test_workload_verdicts_agree(name, monkeypatch):
    assert assert_one_verdict(_workload_config(name, 42), monkeypatch) > 0


@pytest.mark.slow_chaos
@pytest.mark.parametrize("seed", range(1, 25))
@pytest.mark.parametrize("name", [workload.name for workload in WORKLOADS])
def test_workload_verdicts_agree_across_seeds(name, seed, monkeypatch):
    assert_one_verdict(_workload_config(name, seed), monkeypatch)


@pytest.mark.slow_chaos
@pytest.mark.parametrize("spec", scenario_matrix(), ids=lambda spec: spec.name)
def test_verify_cell_verdicts_agree(spec, monkeypatch):
    assert_one_verdict(spec.build_config(), monkeypatch)


@pytest.mark.slow_chaos
def test_merged_log_replays_to_the_union_of_its_partitions(monkeypatch):
    result = ParallelSimulator(
        _workload_config("fleet_chaos", 42), num_partitions=2, num_workers=2
    ).run()
    union: Verdicts = {}
    owners: Dict[str, int] = {}
    offset = 0
    for outcome in result.outcomes:
        events = events_from_tuples(outcome.history)
        for event in events:
            # Timelines are per key, so the partitions' replays compose only
            # when no key is installed or read in two partitions.
            assert owners.setdefault(event.key, outcome.partition_id) == outcome.partition_id
        for seq, verdict in replayed_verdicts(events, monkeypatch).items():
            union[offset + seq] = verdict
        offset += len(events)
    merged = replayed_verdicts(result.history_events(), monkeypatch)
    assert merged and merged == union
