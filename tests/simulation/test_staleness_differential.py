"""Differential test: the auditor's fast path against the full-scan verdict.

``StalenessAuditor.audit_read`` answers the common case (the read returned
the newest version, installed before the read began) without scanning.  The
reference below is the verdict as it stood before that shortcut -- the
reverse search on every read -- kept here as the test oracle.
Generated histories cover what the shortcut must *not* decide: ABA
reversions, reads that began before their version was installed (in-flight
writes), unknown versions and equal timestamps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, strategies as st

from repro.simulation import StalenessAuditor


class FullScanAuditor:
    """The audit before the fast path: every verdict by scanning the history."""

    def __init__(self) -> None:
        self._history: Dict[str, List[Tuple[float, str]]] = {}

    def record_version(self, key: str, version: str, timestamp: float) -> None:
        history = self._history.setdefault(key, [])
        if history and history[-1][1] == version:
            return
        history.append((timestamp, version))

    def audit_read(self, key, observed_version, read_time) -> Optional[float]:
        """Seconds the observed version had been superseded, or ``None`` if fresh."""
        history = self._history.get(key, [])
        if observed_version is None or not history:
            return None
        superseded_at = None
        for index in range(len(history) - 1, -1, -1):
            timestamp, version = history[index]
            if version == observed_version and timestamp <= read_time:
                if index + 1 < len(history):
                    superseded_at = history[index + 1][0]
                break
        if superseded_at is None or superseded_at > read_time:
            return None
        return read_time - superseded_at


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
            assert auditor.timelines == reference._history
        else:
            _, key, observed, began_before = step
            read_time = max(0.0, now - began_before)
            assert auditor.audit_read(key, observed, read_time) == reference.audit_read(
                key, observed, read_time
            )


def test_a_version_installed_after_the_read_began_is_not_taken_for_current():
    """The fast path must look at the install timestamp, not only the token:
    the read returned ``vA`` from its *earlier* life, which ``vB`` had already
    superseded when the read began; ``vA`` only came back afterwards."""
    auditor = StalenessAuditor()
    auditor.record_version("key", "vA", 1.0)
    auditor.record_version("key", "vB", 2.0)
    auditor.record_version("key", "vA", 9.0)
    assert auditor.audit_read("key", "vA", 5.0) == 3.0
