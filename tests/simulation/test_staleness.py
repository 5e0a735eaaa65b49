"""Tests for the staleness auditor (Delta-atomicity verification)."""

from __future__ import annotations

import pytest

from repro.simulation import StalenessAuditor


class TestVersionTracking:
    def test_timeline_follows_writes(self):
        auditor = StalenessAuditor()
        auditor.record_version("key", "v1", 1.0)
        auditor.record_version("key", "v2", 5.0)
        assert auditor.timelines == {"key": [(1.0, "v1"), (5.0, "v2")]}

    def test_duplicate_consecutive_versions_are_deduplicated(self):
        auditor = StalenessAuditor()
        auditor.record_version("key", "v1", 1.0)
        auditor.record_version("key", "v1", 2.0)
        assert len(auditor.timelines["key"]) == 1

    def test_unknown_key(self):
        auditor = StalenessAuditor()
        assert auditor.audit_read("missing", "v1", 1.0) is None
        assert auditor.timelines == {}


class TestReadAudits:
    def test_fresh_read_passes(self):
        auditor = StalenessAuditor()
        auditor.record_version("key", "v1", 1.0)
        assert auditor.audit_read("key", "v1", 2.0) is None

    def test_stale_read_detected_with_duration(self):
        auditor = StalenessAuditor()
        auditor.record_version("key", "v1", 1.0)
        auditor.record_version("key", "v2", 5.0)
        assert auditor.audit_read("key", "v1", 8.0) == pytest.approx(3.0)

    def test_read_before_supersession_is_fresh(self):
        auditor = StalenessAuditor()
        auditor.record_version("key", "v1", 1.0)
        auditor.record_version("key", "v2", 5.0)
        assert auditor.audit_read("key", "v1", 4.0) is None

    def test_aba_content_is_not_flagged(self):
        """A result that reverts to an earlier state is fresh again (ABA)."""
        auditor = StalenessAuditor()
        auditor.record_version("key", "vA", 1.0)
        auditor.record_version("key", "vB", 5.0)
        auditor.record_version("key", "vA", 10.0)
        assert auditor.audit_read("key", "vA", 12.0) is None

    def test_aba_read_between_transitions_is_still_stale(self):
        auditor = StalenessAuditor()
        auditor.record_version("key", "vA", 1.0)
        auditor.record_version("key", "vB", 5.0)
        auditor.record_version("key", "vA", 10.0)
        assert auditor.audit_read("key", "vA", 7.0) == pytest.approx(2.0)

    def test_unknown_version_treated_as_fresh(self):
        auditor = StalenessAuditor()
        auditor.record_version("key", "v1", 1.0)
        assert auditor.audit_read("key", "unknown-version", 2.0) is None

    def test_none_version_treated_as_fresh(self):
        auditor = StalenessAuditor()
        assert auditor.audit_read("key", None, 2.0) is None

    def test_in_flight_write_not_counted_stale(self):
        """Observing a version that only becomes authoritative later is fine."""
        auditor = StalenessAuditor()
        auditor.record_version("key", "v1", 1.0)
        auditor.record_version("key", "v2", 5.0)
        assert auditor.audit_read("key", "v2", 4.9) is None


class TestVerdicts:
    def test_audits_are_pure(self):
        """Auditing keeps no state: counting and aggregating is the simulator's."""
        auditor = StalenessAuditor()
        auditor.record_version("key", "v1", 0.0)
        auditor.record_version("key", "v2", 10.0)
        reads = [("v2", 11.0), ("v1", 12.0), ("v1", 15.0)]
        verdicts = [auditor.audit_read("key", token, at) for token, at in reads]
        assert verdicts == [None, 2.0, 5.0]
        assert [auditor.audit_read("key", token, at) for token, at in reads] == verdicts
        assert auditor.timelines == {"key": [(0.0, "v1"), (10.0, "v2")]}
