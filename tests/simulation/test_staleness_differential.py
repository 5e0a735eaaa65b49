"""Differential test: the auditor's fast paths against the full-scan verdict.

``StalenessAuditor.audit_read`` answers the common case (the read returned
the newest version, installed before the read began) without scanning, and
``current_version`` searches from the newest entry.  The reference below is
the verdict as it stood before either shortcut -- oldest-first scan for the
expected version, then the reverse search -- kept here as the test oracle.
Generated histories cover what the shortcut must *not* decide: ABA
reversions, reads that began before their version was installed (in-flight
writes), unknown versions, degraded serves and equal timestamps.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

from hypothesis import given, strategies as st

from repro.simulation import ReadAudit, StalenessAuditor


class FullScanAuditor:
    """The audit before the fast paths: every verdict by scanning the history."""

    def __init__(self) -> None:
        self._history: Dict[str, List[Tuple[float, str]]] = {}
        self.reads_audited = 0
        self.stale_reads = 0
        self.degraded_reads = 0
        self.samples: List[float] = []

    def record_version(self, key: str, version: str, timestamp: float) -> None:
        history = self._history.setdefault(key, [])
        if history and history[-1][1] == version:
            return
        history.append((timestamp, version))

    def current_version(self, key: str, at_time: float) -> Optional[str]:
        current = None
        for timestamp, version in self._history.get(key, []):
            if timestamp <= at_time:
                current = version
            else:
                break
        return current

    def audit_read(self, key, observed_version, read_time, degraded=False) -> ReadAudit:
        self.reads_audited += 1
        if degraded:
            self.degraded_reads += 1
        history = self._history.get(key, [])
        verdict = dict(
            key=key, read_time=read_time, stale=False,
            expected_version=self.current_version(key, read_time),
            observed_version=observed_version, degraded=degraded,
        )
        if observed_version is None or not history:
            return ReadAudit(**verdict)
        superseded_at = None
        for index in range(len(history) - 1, -1, -1):
            timestamp, version = history[index]
            if version == observed_version and timestamp <= read_time:
                if index + 1 < len(history):
                    superseded_at = history[index + 1][0]
                break
        if superseded_at is None or superseded_at > read_time:
            return ReadAudit(**verdict)
        staleness = read_time - superseded_at
        self.stale_reads += 1
        self.samples.append(staleness)
        return ReadAudit(**{**verdict, "stale": True, "staleness": staleness})


KEYS = ("record:a", "record:b", "query:q")
#: Few versions, so content reverts to earlier states (ABA) all the time.
VERSIONS = ("v1", "v2", "v3")
#: Quarter-second steps from a coarse grid: equal timestamps are common.
steps = st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0, 4.0))

installs = st.tuples(st.just("install"), st.sampled_from(KEYS), st.sampled_from(VERSIONS), steps)
reads = st.tuples(
    st.just("read"),
    st.sampled_from(KEYS),
    st.sampled_from(VERSIONS + ("never-installed", None)),
    #: How long before "now" the read began: 0 = after every install so far,
    #: larger = before recent installs (the in-flight case).
    st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0, 3.0, 50.0)),
    st.booleans(),
)


@given(st.lists(st.one_of(installs, reads), max_size=60))
def test_fast_path_verdicts_equal_the_full_scan(script):
    auditor, reference = StalenessAuditor(), FullScanAuditor()
    now = 0.0
    for step in script:
        if step[0] == "install":
            _, key, version, advance = step
            now += advance  # installs carry the (never decreasing) clock
            auditor.record_version(key, version, now)
            reference.record_version(key, version, now)
            for probe in (now, now - 0.25, 0.0):
                assert auditor.current_version(key, probe) == reference.current_version(key, probe)
        else:
            _, key, observed, began_before, degraded = step
            read_time = max(0.0, now - began_before)
            verdict = auditor.audit_read(key, observed, read_time, degraded=degraded)
            assert asdict(verdict) == asdict(reference.audit_read(key, observed, read_time, degraded))
    assert auditor.reads_audited == reference.reads_audited
    assert auditor.stale_reads == reference.stale_reads
    assert auditor.degraded_reads == reference.degraded_reads
    assert auditor.staleness_samples() == reference.samples


def test_a_version_installed_after_the_read_began_is_not_taken_for_current():
    """The fast path must look at the install timestamp, not only the token:
    the read returned ``vA`` from its *earlier* life, which ``vB`` had already
    superseded when the read began; ``vA`` only came back afterwards."""
    auditor = StalenessAuditor()
    auditor.record_version("key", "vA", 1.0)
    auditor.record_version("key", "vB", 2.0)
    auditor.record_version("key", "vA", 9.0)
    verdict = auditor.audit_read("key", "vA", read_time=5.0)
    assert verdict.stale and verdict.staleness == 3.0
    assert verdict.expected_version == "vB"
