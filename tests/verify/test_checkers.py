"""Unit coverage for the offline guarantee checkers (hand-built histories)."""

from __future__ import annotations

from typing import List, Optional

from repro.client.sdk import DEGRADED_LEVEL, ERROR_LEVEL
from repro.verify.checkers import (
    check_causal_frontier,
    check_delta_atomicity,
    check_monotonic_reads,
    check_read_your_writes,
    run_all,
)
from repro.verify.history import KIND_INSTALL, KIND_OPERATION, HistoryEvent

_SEQ = [0]


def install(key: str, token: str, at: float) -> HistoryEvent:
    seq = _SEQ[0]
    _SEQ[0] += 1
    return HistoryEvent(
        seq=seq, kind=KIND_INSTALL, session="", op="install", key=key,
        invoked=at, completed=at, etag=token, version=None, level="origin",
        frontier=0.0, degraded=False, hedged=False, retried=False,
        fast_failed=False,
    )


def op(
    session: str,
    kind_op: str,
    key: str,
    at: float,
    *,
    etag: Optional[str] = None,
    version: Optional[int] = None,
    level: str = "cdn",
    frontier: float = 0.0,
    degraded: bool = False,
) -> HistoryEvent:
    seq = _SEQ[0]
    _SEQ[0] += 1
    return HistoryEvent(
        seq=seq, kind=KIND_OPERATION, session=session, op=kind_op, key=key,
        invoked=at, completed=at + 0.01, etag=etag, version=version,
        level=level, frontier=frontier, degraded=degraded, hedged=False,
        retried=False, fast_failed=False,
    )


class TestDeltaAtomicity:
    def test_fresh_read_passes(self):
        history = [
            install("k", "v1", 0.0),
            install("k", "v2", 5.0),
            op("c0", "read", "k", 6.0, etag="v2"),
        ]
        assert check_delta_atomicity(history, delta_budget=1.0).ok

    def test_read_within_budget_passes(self):
        history = [
            install("k", "v1", 0.0),
            install("k", "v2", 5.0),
            op("c0", "read", "k", 5.5, etag="v1"),  # 0.5s past supersession
        ]
        assert check_delta_atomicity(history, delta_budget=1.0).ok

    def test_read_past_budget_violates(self):
        history = [
            install("k", "v1", 0.0),
            install("k", "v2", 5.0),
            op("c0", "read", "k", 9.0, etag="v1"),  # 4s past supersession
        ]
        report = check_delta_atomicity(history, delta_budget=1.0)
        assert not report.ok
        assert len(report.violations) == 1
        assert report.violations[0].key == "k"

    def test_aba_reappearance_scores_against_latest_occurrence(self):
        """A token re-installed later must be judged by its newest life."""
        history = [
            install("k", "A", 0.0),
            install("k", "B", 5.0),
            install("k", "A", 10.0),  # content reverted: A is current again
            op("c0", "read", "k", 60.0, etag="A"),
        ]
        assert check_delta_atomicity(history, delta_budget=1.0).ok
        # The superseded middle token still violates.
        stale = history[:3] + [op("c0", "read", "k", 60.0, etag="B")]
        assert not check_delta_atomicity(stale, delta_budget=1.0).ok

    def test_an_install_recorded_after_the_read_does_not_supersede_it(self):
        """The replay contract: a read is judged against the installs recorded
        before it.  ``v2`` carries the read's own instant but was recorded
        after the read, so the online auditor had not seen it: the read of
        ``v1`` is fresh, not 0.0 s stale."""
        history = [
            install("k", "v1", 1.0),
            op("c0", "read", "k", 5.0, etag="v1"),
            install("k", "v2", 5.0),
        ]
        report = check_delta_atomicity(history, delta_budget=1.0)
        assert report.checked == 1
        assert report.ok
        assert "k" not in report.stats["zone_scores"]
        # Recorded the other way round, the same instant does supersede it.
        superseded = [
            install("k", "v1", 1.0),
            install("k", "v2", 5.0),
            op("c0", "read", "k", 5.0, etag="v1"),
        ]
        assert check_delta_atomicity(superseded, delta_budget=1.0).stats["zone_scores"] == {
            "k": 0.0
        }

    def test_unknown_token_is_fresh(self):
        history = [op("c0", "read", "k", 1.0, etag="never-installed")]
        assert check_delta_atomicity(history, delta_budget=1.0).ok

    def test_degraded_reads_use_the_degraded_budget(self):
        history = [
            install("k", "v1", 0.0),
            install("k", "v2", 5.0),
            op("c0", "read", "k", 9.0, etag="v1",
               level=DEGRADED_LEVEL, degraded=True),
        ]
        assert check_delta_atomicity(history, delta_budget=1.0, degraded_budget=10.0).ok
        assert not check_delta_atomicity(history, delta_budget=1.0, degraded_budget=2.0).ok

    def test_error_responses_are_not_checked(self):
        history = [
            install("k", "v1", 0.0),
            install("k", "v2", 5.0),
            op("c0", "read", "k", 90.0, etag="v1", level=ERROR_LEVEL),
        ]
        report = check_delta_atomicity(history, delta_budget=1.0)
        assert report.ok
        assert report.checked == 0

    def test_zone_score_reported_in_stats(self):
        history = [
            install("k", "v1", 0.0),
            install("k", "v2", 5.0),
            op("c0", "read", "k", 5.5, etag="v1"),
        ]
        report = check_delta_atomicity(history, delta_budget=1.0)
        assert report.stats["max_zone_score"] == 0.5


class TestReadYourWrites:
    def test_read_back_of_own_write_passes(self):
        history = [
            op("c0", "update", "k", 1.0, version=3, level="origin"),
            op("c0", "read", "k", 2.0, version=3),
        ]
        assert check_read_your_writes(history).ok

    def test_newer_version_passes(self):
        history = [
            op("c0", "update", "k", 1.0, version=3, level="origin"),
            op("c0", "read", "k", 2.0, version=5),
        ]
        assert check_read_your_writes(history).ok

    def test_older_version_violates(self):
        history = [
            op("c0", "update", "k", 1.0, version=3, level="origin"),
            op("c0", "read", "k", 2.0, version=2),
        ]
        report = check_read_your_writes(history)
        assert not report.ok
        assert report.violations[0].session == "c0"

    def test_other_sessions_have_no_obligation(self):
        history = [
            op("c0", "update", "k", 1.0, version=3, level="origin"),
            op("c1", "read", "k", 2.0, version=1),
        ]
        assert check_read_your_writes(history).ok

    def test_delete_clears_the_obligation(self):
        history = [
            op("c0", "update", "k", 1.0, version=3, level="origin"),
            op("c0", "delete", "k", 2.0, version=-1, level="origin"),
            op("c0", "read", "k", 3.0, version=1),
        ]
        assert check_read_your_writes(history).ok

    def test_degraded_and_versionless_reads_never_violate(self):
        history = [
            op("c0", "update", "k", 1.0, version=3, level="origin"),
            # Degraded serves are Δ-checked, not session-checked: skipped.
            op("c0", "read", "k", 2.0, version=1,
               level=DEGRADED_LEVEL, degraded=True),
            # A miss is locally undecidable (could be a remote delete):
            # counted as checked but never a violation.
            op("c0", "read", "k", 3.0, version=None),
        ]
        report = check_read_your_writes(history)
        assert report.ok
        assert report.checked == 1


class TestMonotonicReads:
    def test_non_decreasing_versions_pass(self):
        history = [
            op("c0", "read", "k", 1.0, version=2),
            op("c0", "read", "k", 2.0, version=2),
            op("c0", "read", "k", 3.0, version=4),
        ]
        assert check_monotonic_reads(history).ok

    def test_regression_violates(self):
        history = [
            op("c0", "read", "k", 1.0, version=4),
            op("c0", "read", "k", 2.0, version=3),
        ]
        assert not check_monotonic_reads(history).ok

    def test_sessions_and_keys_are_independent(self):
        history = [
            op("c0", "read", "a", 1.0, version=4),
            op("c1", "read", "a", 2.0, version=1),
            op("c0", "read", "b", 3.0, version=1),
        ]
        assert check_monotonic_reads(history).ok

    def test_degraded_reads_are_skipped(self):
        history = [
            op("c0", "read", "k", 1.0, version=4),
            op("c0", "read", "k", 2.0, version=1,
               level=DEGRADED_LEVEL, degraded=True),
        ]
        assert check_monotonic_reads(history).ok


class TestCausalFrontier:
    def test_monotone_frontier_passes(self):
        history = [
            op("c0", "read", "k", 1.0, frontier=1.0),
            op("c0", "update", "k", 2.0, version=2, frontier=2.0, level="origin"),
            op("c0", "read", "k", 3.0, frontier=2.0),
        ]
        assert check_causal_frontier(history).ok

    def test_rollback_violates(self):
        history = [
            op("c0", "read", "k", 1.0, frontier=5.0),
            op("c0", "read", "k", 2.0, frontier=3.0),
        ]
        assert not check_causal_frontier(history).ok

    def test_degraded_serve_must_not_advance_the_frontier(self):
        history = [
            op("c0", "read", "k", 1.0, frontier=1.0),
            op("c0", "read", "k", 2.0, frontier=2.0,
               level=DEGRADED_LEVEL, degraded=True),
        ]
        report = check_causal_frontier(history)
        assert not report.ok
        assert "degraded" in report.violations[0].description

    def test_degraded_serve_holding_the_frontier_passes(self):
        history = [
            op("c0", "read", "k", 1.0, frontier=2.0),
            op("c0", "read", "k", 2.0, frontier=2.0,
               level=DEGRADED_LEVEL, degraded=True),
        ]
        assert check_causal_frontier(history).ok


class TestRunAll:
    def test_stable_report_order(self):
        reports = run_all([], delta_budget=1.0)
        assert [r.checker for r in reports] == [
            "delta-atomicity",
            "read-your-writes",
            "monotonic-reads",
            "causal-frontier",
        ]

    def test_empty_history_is_trivially_ok(self):
        assert all(report.ok for report in run_all([], delta_budget=1.0))
