"""Staleness auditing against the globally ordered write history.

The simulator detects staleness (violations of linearizability) by keeping,
for every cache key, the ordered list of authoritative versions with their
commit timestamps.  A read that returns a version which had already been
superseded when the read started is stale; the staleness duration is the time
since the *next* version was committed -- this is exactly the Delta in
Delta-atomicity, so the audit verifies Theorem 1's bound empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(slots=True)
class ReadAudit:
    """Verdict for a single audited read.

    One is minted per audited read, so it is slotted and -- like
    :class:`~repro.caching.hierarchy.FetchResult` -- not ``frozen`` (which
    would assign each of the seven fields through ``object.__setattr__``).
    Treat instances as read-only.
    """

    key: str
    read_time: float
    stale: bool
    staleness: float = 0.0
    #: Version that was current when the read started (diagnostics).
    expected_version: Optional[str] = None
    #: Version the read actually returned.
    observed_version: Optional[str] = None
    #: True when the read was served in degraded mode (stale-if-error): the
    #: client *knew* the entry was expired and surfaced it only because the
    #: authoritative path was unavailable.  Kept distinct from ``stale`` --
    #: a degraded serve of content that was never superseded is not a
    #: consistency violation, merely an availability concession.
    degraded: bool = False


class StalenessAuditor:
    """Tracks authoritative versions and audits reads against them."""

    def __init__(self) -> None:
        # Per key: list of (commit_timestamp, version_token), append-only.
        self._history: Dict[str, List[Tuple[float, str]]] = {}
        self.reads_audited = 0
        self.stale_reads = 0
        self.degraded_reads = 0
        self._staleness_samples: List[float] = []

    # -- write side ----------------------------------------------------------------

    def record_version(self, key: str, version: str, timestamp: float) -> None:
        """Record that ``key``'s authoritative content became ``version`` at ``timestamp``.

        Installs arrive in clock order: along a key's history timestamps
        never decrease (equal ones are fine), which the lookups rely on.
        """
        history = self._history.setdefault(key, [])
        if history and history[-1][1] == version:
            return
        history.append((timestamp, version))

    def current_version(self, key: str, at_time: Optional[float] = None) -> Optional[str]:
        """The authoritative version of ``key`` at ``at_time`` (default: latest)."""
        history = self._history.get(key)
        if not history:
            return None
        if at_time is None:
            return history[-1][1]
        # Timestamps never decrease along the append-only history, so the
        # newest entry at or before ``at_time`` is found from the newest end
        # -- audits ask about "now", where that is the first one tried.
        for timestamp, version in reversed(history):
            if timestamp <= at_time:
                return version
        return None

    # -- read side -------------------------------------------------------------------

    def audit_read(
        self,
        key: str,
        observed_version: Optional[str],
        read_time: float,
        degraded: bool = False,
    ) -> ReadAudit:
        """Audit one read: was the observed version already superseded?

        ``observed_version`` is the Etag/version token of the data the client
        actually received; ``read_time`` is the instant the read started (the
        strictest interpretation for linearizability).  ``degraded`` marks a
        stale-if-error serve: it is recorded on the audit (and counted), and
        its staleness -- measured exactly like any other read's -- checks the
        degraded path against the configured Δ budget.
        """
        self.reads_audited += 1
        if degraded:
            self.degraded_reads += 1
        history = self._history.get(key, ())
        if history:
            installed_at, newest = history[-1]
            if newest == observed_version and installed_at <= read_time:
                # The common case, decided without scanning: the read returned
                # the newest version, and that version was already installed
                # when the read began -- so it is also the expected one and
                # nothing superseded it.  Anything else (older or unknown
                # version, or one installed only after the read began) gets
                # the full verdict below.
                return ReadAudit(key, read_time, False, 0.0, newest, newest, degraded)
        expected = self.current_version(key, read_time)

        if observed_version is None or not history:
            return ReadAudit(key=key, read_time=read_time, stale=False,
                             expected_version=expected, observed_version=observed_version,
                             degraded=degraded)

        # Find when the observed version was superseded (if it ever was).
        # Content can return to an earlier state (ABA: a query result reverts
        # to a previous membership), so the relevant occurrence is the latest
        # one that had already been established when the read started.
        superseded_at: Optional[float] = None
        found = False
        fallback_index: Optional[int] = None
        for index in range(len(history) - 1, -1, -1):
            timestamp, version = history[index]
            if version != observed_version:
                continue
            fallback_index = index if fallback_index is None else fallback_index
            if timestamp <= read_time:
                found = True
                if index + 1 < len(history):
                    superseded_at = history[index + 1][0]
                break
        if not found:
            if fallback_index is not None:
                # The observed state only became authoritative after the read
                # started (in-flight write); such a read is not stale.
                return ReadAudit(key=key, read_time=read_time, stale=False,
                                 expected_version=expected, observed_version=observed_version,
                                 degraded=degraded)
            # Unknown version (e.g. produced before auditing started): treat
            # as fresh rather than guessing.
            return ReadAudit(key=key, read_time=read_time, stale=False,
                             expected_version=expected, observed_version=observed_version,
                             degraded=degraded)

        if superseded_at is None or superseded_at > read_time:
            return ReadAudit(key=key, read_time=read_time, stale=False,
                             expected_version=expected, observed_version=observed_version,
                             degraded=degraded)

        staleness = read_time - superseded_at
        self.stale_reads += 1
        self._staleness_samples.append(staleness)
        return ReadAudit(
            key=key,
            read_time=read_time,
            stale=True,
            staleness=staleness,
            expected_version=expected,
            observed_version=observed_version,
            degraded=degraded,
        )

    # -- aggregate statistics -----------------------------------------------------------

    @property
    def stale_rate(self) -> float:
        """Fraction of audited reads that were stale."""
        if self.reads_audited == 0:
            return 0.0
        return self.stale_reads / self.reads_audited

    @property
    def max_staleness(self) -> float:
        """Largest observed staleness (the empirical Delta bound)."""
        return max(self._staleness_samples) if self._staleness_samples else 0.0

    @property
    def mean_staleness(self) -> float:
        if not self._staleness_samples:
            return 0.0
        return sum(self._staleness_samples) / len(self._staleness_samples)

    def staleness_samples(self) -> List[float]:
        return list(self._staleness_samples)

    def reset_counters(self) -> None:
        """Reset audit counters while keeping the version history."""
        self.reads_audited = 0
        self.stale_reads = 0
        self.degraded_reads = 0
        self._staleness_samples.clear()

    def __repr__(self) -> str:
        return (
            f"StalenessAuditor(reads={self.reads_audited}, stale={self.stale_reads}, "
            f"rate={self.stale_rate:.4f})"
        )
