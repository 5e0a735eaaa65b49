"""Offline consistency checkers: pure functions over recorded histories.

Each checker takes the flat event sequence produced by
:class:`repro.verify.history.HistoryRecorder` and returns a
:class:`CheckerReport`.  Nothing here touches the simulator, clocks, or
RNGs, so the same history yields the same verdicts wherever it was
recorded.

Checkers
--------
* ``delta-atomicity`` — Golab-style per-key zone scoring: a read's score
  is how long its observed version token had been superseded when the
  read was invoked; any score above the configured Δ budget is a
  violation.  The score is not computed here: the checker replays a
  fresh :class:`repro.simulation.staleness.StalenessAuditor` over the
  log in seq order, so each read gets the online auditor's own verdict
  against the installs recorded before it.
* ``read-your-writes`` — per session: a read of a key this session wrote
  must observe a version at least as new as the last acknowledged write.
* ``monotonic-reads`` — per (session, key): observed record versions
  never go backwards.
* ``causal-frontier`` — per session: the causal frontier never moves
  backwards, and degraded (stale-if-error) or failed operations never
  advance it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.client.sdk import DEGRADED_LEVEL, ERROR_LEVEL
from repro.simulation.staleness import StalenessAuditor

from .history import KIND_INSTALL, KIND_OPERATION, TOMBSTONE_VERSION, HistoryEvent

__all__ = [
    "Violation",
    "CheckerReport",
    "check_delta_atomicity",
    "check_read_your_writes",
    "check_monotonic_reads",
    "check_causal_frontier",
    "run_all",
]


@dataclass(frozen=True)
class Violation:
    """One guarantee breach, anchored to the events that witness it."""

    checker: str
    session: str
    key: str
    seqs: Tuple[int, ...]
    description: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f"session={self.session or '-'} key={self.key}"
        return f"[{self.checker}] {where} seqs={list(self.seqs)}: {self.description}"


@dataclass
class CheckerReport:
    """Result of running one checker over a history."""

    checker: str
    checked: int
    violations: List[Violation] = field(default_factory=list)
    #: Checker-specific diagnostics (e.g. per-key max zone scores).
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_delta_atomicity(
    events: Sequence[HistoryEvent],
    delta_budget: float,
    degraded_budget: Optional[float] = None,
) -> CheckerReport:
    """Replay the staleness auditor over the log and score every read/query.

    Events are walked in seq order, the order a recorded history keeps
    them in: each install enters a fresh :class:`StalenessAuditor`, and
    each read or query is scored by its ``audit_read`` when the replay
    reaches it.  A read is therefore judged against the installs recorded
    before it -- exactly what the online auditor saw when it audited that
    read.  An install stamped with the read's own instant but recorded
    after it does not supersede the read.

    ``delta_budget`` is the Δ the system promises for ordinary reads;
    ``degraded_budget`` (default: same) applies to stale-if-error serves,
    which trade extra bounded staleness for availability.
    """
    if degraded_budget is None:
        degraded_budget = delta_budget
    auditor = StalenessAuditor()
    report = CheckerReport(checker="delta-atomicity", checked=0)
    zones: Dict[str, float] = {}
    worst = 0.0
    for event in events:
        if event.kind == KIND_INSTALL:
            if event.etag is not None:
                auditor.record_version(event.key, event.etag, event.invoked)
            continue
        if event.op not in ("read", "query") or event.etag is None or event.level == ERROR_LEVEL:
            continue
        report.checked += 1
        score = auditor.audit_read(event.key, event.etag, event.invoked)
        if score is None:
            continue
        zones[event.key] = max(zones.get(event.key, 0.0), score)
        worst = max(worst, score)
        budget = degraded_budget if event.degraded else delta_budget
        if score > budget:
            report.violations.append(
                Violation(
                    checker="delta-atomicity",
                    session=event.session,
                    key=event.key,
                    seqs=(event.seq,),
                    description=(
                        f"{event.op} observed token {event.etag!r} superseded "
                        f"{score:.3f}s before invocation (budget "
                        f"{budget:.3f}s{', degraded' if event.degraded else ''})"
                    ),
                )
            )
    report.stats["max_zone_score"] = worst
    report.stats["zone_scores"] = zones
    return report


def check_read_your_writes(events: Sequence[HistoryEvent]) -> CheckerReport:
    """A session's reads must observe its own acknowledged writes."""
    report = CheckerReport(checker="read-your-writes", checked=0)
    # Per session: key -> (version written, seq of the write).
    expected: Dict[str, Dict[str, Tuple[int, int]]] = {}
    for event in events:
        if event.kind != KIND_OPERATION or not event.session:
            continue
        mine = expected.setdefault(event.session, {})
        if event.op in ("insert", "update", "delete"):
            if event.level == ERROR_LEVEL or event.version is None:
                continue  # unacknowledged write: no obligation
            if event.op == "delete" or event.version == TOMBSTONE_VERSION:
                # After a delete another session may legitimately recreate
                # the document with a fresh version sequence, so a later
                # observation is not locally decidable; drop the obligation.
                mine.pop(event.key, None)
            else:
                mine[event.key] = (event.version, event.seq)
        elif event.op == "read":
            if event.degraded or event.level == ERROR_LEVEL:
                continue  # degraded serves are Δ-checked, not session-checked
            if event.key not in mine:
                continue
            report.checked += 1
            if event.version is None:
                # A miss cannot be distinguished locally from a remote
                # delete; the Δ checker scores the served content instead.
                continue
            version, write_seq = mine[event.key]
            if event.version < version:
                report.violations.append(
                    Violation(
                        checker="read-your-writes",
                        session=event.session,
                        key=event.key,
                        seqs=(write_seq, event.seq),
                        description=(
                            f"read observed v{event.version} after this session's "
                            f"acknowledged write of v{version}"
                        ),
                    )
                )
    return report


def check_monotonic_reads(events: Sequence[HistoryEvent]) -> CheckerReport:
    """Per (session, key): observed record versions never regress."""
    report = CheckerReport(checker="monotonic-reads", checked=0)
    seen: Dict[Tuple[str, str], Tuple[int, int]] = {}
    for event in events:
        if event.kind != KIND_OPERATION or event.op != "read" or not event.session:
            continue
        if event.degraded or event.level == ERROR_LEVEL or event.version is None:
            continue
        report.checked += 1
        slot = (event.session, event.key)
        previous = seen.get(slot)
        if previous is not None and event.version < previous[0]:
            report.violations.append(
                Violation(
                    checker="monotonic-reads",
                    session=event.session,
                    key=event.key,
                    seqs=(previous[1], event.seq),
                    description=(
                        f"read observed v{event.version} after the same session "
                        f"had already observed v{previous[0]}"
                    ),
                )
            )
            continue
        if previous is None or event.version > previous[0]:
            seen[slot] = (event.version, event.seq)
    return report


def check_causal_frontier(events: Sequence[HistoryEvent]) -> CheckerReport:
    """Frontier is monotone per session and frozen by degraded/error ops."""
    report = CheckerReport(checker="causal-frontier", checked=0)
    frontier: Dict[str, Tuple[float, int]] = {}
    for event in events:
        if event.kind != KIND_OPERATION or not event.session:
            continue
        report.checked += 1
        previous = frontier.get(event.session)
        if previous is not None:
            last_frontier, last_seq = previous
            if event.frontier < last_frontier:
                report.violations.append(
                    Violation(
                        checker="causal-frontier",
                        session=event.session,
                        key=event.key,
                        seqs=(last_seq, event.seq),
                        description=(
                            f"causal frontier moved backwards: "
                            f"{last_frontier:.4f} -> {event.frontier:.4f}"
                        ),
                    )
                )
            elif (
                event.frontier > last_frontier
                and (event.degraded or event.level in (ERROR_LEVEL, DEGRADED_LEVEL))
            ):
                report.violations.append(
                    Violation(
                        checker="causal-frontier",
                        session=event.session,
                        key=event.key,
                        seqs=(last_seq, event.seq),
                        description=(
                            f"{'degraded' if event.degraded else event.level} "
                            f"{event.op} advanced the causal frontier "
                            f"{last_frontier:.4f} -> {event.frontier:.4f}"
                        ),
                    )
                )
        frontier[event.session] = (event.frontier, event.seq)
    return report


def run_all(
    events: Sequence[HistoryEvent],
    delta_budget: float,
    degraded_budget: Optional[float] = None,
) -> List[CheckerReport]:
    """Run every checker; reports come back in a stable order."""
    return [
        check_delta_atomicity(events, delta_budget, degraded_budget),
        check_read_your_writes(events),
        check_monotonic_reads(events),
        check_causal_frontier(events),
    ]
