"""Mutation self-tests: deliberately broken histories the checkers must catch.

A verification harness that never fires is indistinguishable from one
that works; this module makes the checkers falsifiable.  Each registered
mutation takes a (passing) recorded history and injects one specific
guarantee breach — an oversized TTL serving a long-superseded record, a
dropped invalidation leaving a query fingerprint live, a causal-frontier
rollback, a lost acknowledged write, a monotonic-read regression, a
degraded serve that advances the frontier — and the self-test asserts
the targeted checker reports at least one violation on the mutated
history.  Mutations prefer corrupting real events and fall back to
synthesising a minimal fixture, so the suite is applicable to any
history, including an empty one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.client.sdk import DEGRADED_LEVEL
from repro.simulation.staleness import StalenessAuditor

from .checkers import run_all
from .history import KIND_INSTALL, KIND_OPERATION, HistoryEvent

__all__ = ["Mutation", "MutationOutcome", "MUTATIONS", "run_mutation_self_test"]

#: Injected staleness, far beyond any plausible Δ budget (seconds).
_WAY_PAST_DELTA = 3600.0


@dataclass(frozen=True)
class Mutation:
    name: str
    description: str
    expected_checker: str
    apply: Callable[[Sequence[HistoryEvent]], List[HistoryEvent]]


@dataclass(frozen=True)
class MutationOutcome:
    name: str
    expected_checker: str
    detected: bool
    checkers_fired: Tuple[str, ...]


def _next_seq(events: Sequence[HistoryEvent]) -> int:
    return max((event.seq for event in events), default=-1) + 1


def _last_time(events: Sequence[HistoryEvent]) -> float:
    return max((event.completed for event in events), default=0.0)


def _operation(
    seq: int,
    *,
    session: str,
    op: str,
    key: str,
    invoked: float,
    etag: Optional[str] = None,
    version: Optional[int] = None,
    level: str = "cdn",
    frontier: float = 0.0,
    degraded: bool = False,
) -> HistoryEvent:
    return HistoryEvent(
        seq=seq, kind=KIND_OPERATION, session=session, op=op, key=key,
        invoked=invoked, completed=invoked + 0.01, etag=etag, version=version,
        level=level, frontier=frontier, degraded=degraded, hedged=False,
        retried=False, fast_failed=False,
    )


def _install(seq: int, key: str, token: str, timestamp: float) -> HistoryEvent:
    return HistoryEvent(
        seq=seq, kind=KIND_INSTALL, session="", op="install", key=key,
        invoked=timestamp, completed=timestamp, etag=token, version=None,
        level="origin", frontier=0.0, degraded=False, hedged=False,
        retried=False, fast_failed=False,
    )


def _superseded_token(
    events: Sequence[HistoryEvent],
) -> Optional[Tuple[str, str, float]]:
    """(key, token, instant) where reading ``token`` is stale far past Δ.

    Reads the timelines the Δ-checker replays: some key's first token, read
    long after the key's last install.  The ABA rule scores a token by its
    latest occurrence, so a first token that is current again is skipped.
    """
    auditor = StalenessAuditor()
    for event in events:
        if event.kind == KIND_INSTALL and event.etag is not None:
            auditor.record_version(event.key, event.etag, event.invoked)
    for key, timeline in auditor.timelines.items():
        token, invoked = timeline[0][1], timeline[-1][0] + _WAY_PAST_DELTA
        if auditor.audit_read(key, token, invoked) is not None:
            return key, token, invoked
    return None


def _stale_serve(events: Sequence[HistoryEvent], op: str, fixture_key: str) -> List[HistoryEvent]:
    """Append a read/query observing a token superseded long before it."""
    mutated = list(events)
    seq = _next_seq(mutated)
    target = _superseded_token(mutated)
    if target is None:
        base = _last_time(mutated) + 1.0
        mutated.append(_install(seq, fixture_key, "v1", base))
        mutated.append(_install(seq + 1, fixture_key, "v2", base + 1.0))
        target = (fixture_key, "v1", base + 1.0 + _WAY_PAST_DELTA)
        seq += 2
    key, token, invoked = target
    mutated.append(
        _operation(seq, session="mutant", op=op, key=key, invoked=invoked, etag=token)
    )
    return mutated


def _mutate_oversized_ttl(events: Sequence[HistoryEvent]) -> List[HistoryEvent]:
    """A cache TTL so large a superseded record is served far past Δ."""
    return _stale_serve(events, "read", "mutant:ttl")


def _mutate_dropped_invalidation(events: Sequence[HistoryEvent]) -> List[HistoryEvent]:
    """An InvaliDB notification never arrives: a dead fingerprint stays live."""
    return _stale_serve(events, "query", "mutant:query")


def _session_frontier(
    events: Sequence[HistoryEvent],
) -> Tuple[str, float]:
    """(session, final frontier) for some session, falling back to a fixture."""
    frontier: Dict[str, float] = {}
    for event in events:
        if event.kind == KIND_OPERATION and event.session:
            frontier[event.session] = event.frontier
    if frontier:
        session = sorted(frontier)[0]
        return session, frontier[session]
    return "mutant", 10.0


def _mutate_frontier_rollback(events: Sequence[HistoryEvent]) -> List[HistoryEvent]:
    """A session's causal frontier jumps backwards in time."""
    mutated = list(events)
    session, frontier = _session_frontier(mutated)
    seq = _next_seq(mutated)
    invoked = _last_time(mutated) + 1.0
    if session == "mutant":
        mutated.append(
            _operation(seq, session=session, op="read", key="mutant:frontier",
                       invoked=invoked, frontier=frontier)
        )
        seq += 1
        invoked += 1.0
    mutated.append(
        _operation(seq, session=session, op="read", key="mutant:frontier",
                   invoked=invoked, frontier=frontier - 5.0)
    )
    return mutated


def _mutate_degraded_frontier_advance(events: Sequence[HistoryEvent]) -> List[HistoryEvent]:
    """A stale-if-error serve (wrongly) advances the causal frontier."""
    mutated = list(events)
    session, frontier = _session_frontier(mutated)
    seq = _next_seq(mutated)
    invoked = _last_time(mutated) + 1.0
    if session == "mutant":
        mutated.append(
            _operation(seq, session=session, op="read", key="mutant:frontier",
                       invoked=invoked, frontier=frontier)
        )
        seq += 1
        invoked += 1.0
    mutated.append(
        _operation(seq, session=session, op="read", key="mutant:frontier",
                   invoked=invoked, level=DEGRADED_LEVEL, degraded=True,
                   frontier=frontier + 5.0)
    )
    return mutated


def _frontier_of(events: Sequence[HistoryEvent], session: str) -> float:
    """The session's final causal frontier (0.0 when it has no events)."""
    frontier = 0.0
    for event in events:
        if event.kind == KIND_OPERATION and event.session == session:
            frontier = event.frontier
    return frontier


def _final_writes(
    events: Sequence[HistoryEvent],
) -> Optional[Tuple[str, str, int]]:
    """(session, key, version) of some session's last acknowledged write ≥ 1."""
    acked: Dict[Tuple[str, str], int] = {}
    for event in events:
        if (
            event.kind == KIND_OPERATION
            and event.op in ("insert", "update")
            and event.session
            and event.version is not None
            and event.version >= 1
        ):
            acked[(event.session, event.key)] = event.version
        elif event.kind == KIND_OPERATION and event.op == "delete" and event.session:
            acked.pop((event.session, event.key), None)
    if acked:
        session, key = sorted(acked)[0]
        return session, key, acked[(session, key)]
    return None


def _mutate_lost_acked_write(events: Sequence[HistoryEvent]) -> List[HistoryEvent]:
    """A read misses the session's own acknowledged write."""
    mutated = list(events)
    seq = _next_seq(mutated)
    target = _final_writes(mutated)
    if target is None:
        invoked = _last_time(mutated) + 1.0
        mutated.append(
            _operation(seq, session="mutant", op="update", key="mutant:ryw",
                       invoked=invoked, version=7, level="origin")
        )
        target = ("mutant", "mutant:ryw", 7)
        seq += 1
    session, key, version = target
    mutated.append(
        _operation(seq, session=session, op="read", key=key,
                   invoked=_last_time(mutated) + 1.0, version=version - 1,
                   frontier=_frontier_of(mutated, session))
    )
    return mutated


def _last_observed(
    events: Sequence[HistoryEvent],
) -> Optional[Tuple[str, str, int]]:
    """(session, key, version) of some session's last observed version ≥ 1."""
    seen: Dict[Tuple[str, str], int] = {}
    for event in events:
        if (
            event.kind == KIND_OPERATION
            and event.op == "read"
            and event.session
            and not event.degraded
            and event.version is not None
            and event.version >= 1
        ):
            slot = (event.session, event.key)
            seen[slot] = max(seen.get(slot, 0), event.version)
    if seen:
        session, key = sorted(seen)[0]
        return session, key, seen[(session, key)]
    return None


def _mutate_monotonic_regression(events: Sequence[HistoryEvent]) -> List[HistoryEvent]:
    """A session observes an older version than it has already seen."""
    mutated = list(events)
    seq = _next_seq(mutated)
    target = _last_observed(mutated)
    if target is None:
        invoked = _last_time(mutated) + 1.0
        mutated.append(
            _operation(seq, session="mutant", op="read", key="mutant:mono",
                       invoked=invoked, version=4)
        )
        target = ("mutant", "mutant:mono", 4)
        seq += 1
    session, key, version = target
    mutated.append(
        _operation(seq, session=session, op="read", key=key,
                   invoked=_last_time(mutated) + 1.0, version=version - 1,
                   frontier=_frontier_of(mutated, session))
    )
    return mutated


MUTATIONS: Tuple[Mutation, ...] = (
    Mutation(
        name="oversized_ttl",
        description="cache serves a record superseded far beyond Δ",
        expected_checker="delta-atomicity",
        apply=_mutate_oversized_ttl,
    ),
    Mutation(
        name="dropped_invalidation",
        description="query fingerprint survives its invalidation",
        expected_checker="delta-atomicity",
        apply=_mutate_dropped_invalidation,
    ),
    Mutation(
        name="frontier_rollback",
        description="session causal frontier moves backwards",
        expected_checker="causal-frontier",
        apply=_mutate_frontier_rollback,
    ),
    Mutation(
        name="degraded_frontier_advance",
        description="stale-if-error serve advances the causal frontier",
        expected_checker="causal-frontier",
        apply=_mutate_degraded_frontier_advance,
    ),
    Mutation(
        name="lost_acked_write",
        description="read misses the session's own acknowledged write",
        expected_checker="read-your-writes",
        apply=_mutate_lost_acked_write,
    ),
    Mutation(
        name="monotonic_regression",
        description="session re-observes an older version",
        expected_checker="monotonic-reads",
        apply=_mutate_monotonic_regression,
    ),
)


def run_mutation_self_test(
    events: Sequence[HistoryEvent],
    delta_budget: float,
    degraded_budget: Optional[float] = None,
) -> List[MutationOutcome]:
    """Apply every mutation; the targeted checker must fire on each.

    The base ``events`` history is expected to be violation-free (the
    scenario runner asserts that separately); detection means the
    mutation's ``expected_checker`` reports ≥1 violation on the mutated
    history.
    """
    outcomes: List[MutationOutcome] = []
    for mutation in MUTATIONS:
        mutated = mutation.apply(events)
        reports = run_all(mutated, delta_budget, degraded_budget)
        fired = tuple(report.checker for report in reports if not report.ok)
        outcomes.append(
            MutationOutcome(
                name=mutation.name,
                expected_checker=mutation.expected_checker,
                detected=mutation.expected_checker in fired,
                checkers_fired=fired,
            )
        )
    return outcomes
