"""History recording: determinism, no behavioral footprint, wire format."""

from __future__ import annotations

import pytest

from repro.simulation.simulator import SimulationConfig, Simulator
from repro.simulation.staleness import StalenessAuditor
from repro.verify.history import (
    KIND_INSTALL,
    KIND_OPERATION,
    HistoryEvent,
    HistoryRecorder,
    canonical_bytes,
    events_from_tuples,
)


def _config(record_history: bool, seed: int = 42) -> SimulationConfig:
    return SimulationConfig(
        seed=seed,
        num_shards=2,
        replication_factor=3,
        num_clients=4,
        connections_per_client=2,
        duration=30.0,
        max_operations=400,
        matching_nodes=2,
        record_history=record_history,
    )


class TestRecorder:
    """Installs reach the log through the auditor, which applies the repeat rule."""

    def test_install_dedupes_consecutive_identical_tokens(self):
        recorder = HistoryRecorder()
        auditor = StalenessAuditor(recorder=recorder)
        auditor.record_version("k", "v1", 1.0)
        auditor.record_version("k", "v1", 2.0)  # same token again: dropped
        auditor.record_version("k", "v2", 3.0)
        auditor.record_version("k", "v1", 4.0)  # reappearance: kept (ABA)
        assert [(e.invoked, e.etag) for e in recorder.events()] == auditor.timelines["k"]
        assert auditor.timelines["k"] == [(1.0, "v1"), (3.0, "v2"), (4.0, "v1")]

    def test_install_dedupe_is_per_key(self):
        recorder = HistoryRecorder()
        auditor = StalenessAuditor(recorder=recorder)
        auditor.record_version("a", "v1", 1.0)
        auditor.record_version("b", "v1", 2.0)
        assert len(recorder.events()) == 2

    def test_operation_events_are_sequenced(self):
        recorder = HistoryRecorder()
        recorder.record_operation(
            session="c0", op="read", key="k", invoked=1.0, completed=1.1,
            etag="v1", version=3, level="cdn", frontier=0.5,
            degraded=False, hedged=False, retried=False, fast_failed=False,
        )
        recorder.record_install("k", "v2", 2.0)
        events = recorder.events()
        assert [e.seq for e in events] == [0, 1]
        assert events[0].kind == KIND_OPERATION
        assert events[1].kind == KIND_INSTALL


class TestWireFormat:
    def test_tuple_roundtrip(self):
        recorder = HistoryRecorder()
        recorder.record_install("k", "v1", 1.0)
        recorder.record_operation(
            session="c0", op="query", key="q", invoked=1.0, completed=1.5,
            etag="f1", version=None, level="origin", frontier=1.5,
            degraded=True, hedged=True, retried=False, fast_failed=True,
        )
        events = recorder.events()
        rebuilt = events_from_tuples(tuple(e) for e in events)
        assert rebuilt == events

    def test_canonical_bytes_is_order_sensitive(self):
        a = HistoryEvent(
            seq=0, kind=KIND_INSTALL, session="", op="install", key="k",
            invoked=1.0, completed=1.0, etag="v1", version=None, level="origin",
            frontier=0.0, degraded=False, hedged=False, retried=False,
            fast_failed=False,
        )
        b = HistoryEvent(
            seq=1, kind=KIND_INSTALL, session="", op="install", key="k",
            invoked=2.0, completed=2.0, etag="v2", version=None, level="origin",
            frontier=0.0, degraded=False, hedged=False, retried=False,
            fast_failed=False,
        )
        assert canonical_bytes([a, b]) != canonical_bytes([b, a])
        assert canonical_bytes([a, b]) == canonical_bytes([a, b])

    def test_describe_is_one_line(self):
        event = HistoryEvent(
            seq=7, kind=KIND_OPERATION, session="c1", op="read", key="k",
            invoked=1.0, completed=1.2, etag="v1", version=4, level="cdn",
            frontier=0.9, degraded=True, hedged=False, retried=True,
            fast_failed=False,
        )
        text = event.describe()
        assert "\n" not in text
        assert "#7" in text and "c1" in text and "read" in text


class TestSimulatorIntegration:
    @pytest.fixture(scope="class")
    def recorded(self):
        simulator = Simulator(_config(record_history=True))
        result = simulator.run()
        return simulator, result

    def test_seeded_runs_record_identical_histories(self, recorded):
        simulator, _ = recorded
        again = Simulator(_config(record_history=True))
        again.run()
        assert canonical_bytes(again.history_events()) == canonical_bytes(
            simulator.history_events()
        )

    def test_recording_leaves_no_behavioral_footprint(self, recorded):
        """record_history=True must not change a single result value."""
        _, result = recorded
        plain = Simulator(_config(record_history=False)).run()
        assert plain.summary() == result.summary()

    def test_history_off_is_empty(self):
        simulator = Simulator(_config(record_history=False))
        simulator.run()
        assert simulator.history_events() == ()

    def test_history_covers_every_operation(self, recorded):
        simulator, _ = recorded
        ops = [e for e in simulator.history_events() if e.kind == KIND_OPERATION]
        assert len(ops) == 400
        # Monotone invocation order within the drained history.
        invocations = [e.invoked for e in ops]
        assert invocations == sorted(invocations)

    def test_reads_carry_observed_versions(self, recorded):
        simulator, _ = recorded
        versioned = [
            e
            for e in simulator.history_events()
            if e.kind == KIND_OPERATION and e.version is not None
        ]
        assert versioned, "no operation recorded an observed version"
