"""Staleness auditing against the globally ordered write history.

The simulator detects staleness (violations of linearizability) by keeping,
for every cache key, the ordered list of authoritative versions with their
commit timestamps.  A read that returns a version which had already been
superseded when the read started is stale; the staleness duration is the time
since the *next* version was committed -- this is exactly the Delta in
Delta-atomicity, so the audit verifies Theorem 1's bound empirically.

:class:`StalenessAuditor` is the one owner of those timelines and the one
verdict over them.  Every install site calls :meth:`~StalenessAuditor.record_version`
(which mirrors each new timeline entry into an attached history recorder),
and the offline Δ-checker (:func:`repro.verify.checkers.check_delta_atomicity`)
replays a fresh auditor over the recorded log, so the online rate and the
offline check cannot disagree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.verify.history import HistoryRecorder


class StalenessAuditor:
    """Tracks authoritative versions and audits reads against them."""

    def __init__(self, recorder: Optional["HistoryRecorder"] = None) -> None:
        #: Per key: ``(commit_timestamp, version_token)``, append-only, never
        #: empty, with no consecutive repeats.  Read-only outside this class.
        self.timelines: Dict[str, List[Tuple[float, str]]] = {}
        #: Optional history recorder: every appended timeline entry is
        #: mirrored into it as an install event, so the log carries exactly
        #: the timeline this auditor judges by.
        self.recorder = recorder

    # -- write side ----------------------------------------------------------------

    def record_version(self, key: str, version: str, timestamp: float) -> None:
        """Record that ``key``'s authoritative content became ``version`` at ``timestamp``.

        The single chokepoint for every install site (write stream, query
        fingerprints, invalidation markers, scatter merges).  A repeat of the
        key's current version is dropped.  Installs arrive in clock order:
        along a key's timeline timestamps never decrease (equal ones are
        fine), which the lookups rely on.
        """
        timelines = self.timelines
        if key in timelines:
            timeline = timelines[key]
            if timeline[-1][1] == version:
                return
            timeline.append((timestamp, version))
        else:
            timelines[key] = [(timestamp, version)]
        if self.recorder is not None:
            self.recorder.record_install(key, version, timestamp)

    # -- read side -------------------------------------------------------------------

    def audit_read(self, key: str, token: Optional[str], at: float) -> Optional[float]:
        """Seconds ``token`` had been superseded when a read of ``key`` began at ``at``.

        ``token`` is the Etag/version token of the data the client actually
        received; ``at`` is the instant the read started (the strictest
        interpretation for linearizability).  Returns ``None`` when the read
        is fresh: the token is current, only became authoritative after the
        read started (in-flight write), or was never recorded (pre-audit
        content).  A degraded (stale-if-error) serve is measured exactly like
        any other read.
        """
        timelines = self.timelines
        if key not in timelines:
            return None
        timeline = timelines[key]
        installed_at, newest = timeline[-1]
        if newest == token and installed_at <= at:
            # The common case, decided without scanning: the read returned
            # the newest version, already installed when the read began.
            return None
        # Content can return to an earlier state (ABA: a query result reverts
        # to a previous membership), so the relevant occurrence is the latest
        # one that had already been established when the read started; the
        # entry after it (``superseded_at``, ``None`` for the newest) ended it.
        superseded_at = None
        for timestamp, version in reversed(timeline):
            if version == token and timestamp <= at:
                if superseded_at is not None and superseded_at <= at:
                    return at - superseded_at
                return None
            superseded_at = timestamp
        return None
