"""Construction-time fault-plan validation and the legible repr timeline."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, UnsupportedFaultError
from repro.faults import FaultAction, FaultEvent, FaultPlan
from repro.faults.plan import target_shard


class TestTargetGrammar:
    @pytest.mark.parametrize("target", ("shard:0", "shard:12", "s0:n0", "s3:n11"))
    def test_valid_targets(self, target):
        FaultEvent(1.0, FaultAction.CRASH, target)  # does not raise

    @pytest.mark.parametrize(
        "target",
        ("", "shard", "shard:", "shard:x", "shard:-1", "s0", "s0:n", "n0:s0",
         "s0:n0:x", "node-3", "Shard:0", " shard:0"),
    )
    def test_malformed_targets_fail_at_construction(self, target):
        with pytest.raises(UnsupportedFaultError):
            FaultEvent(1.0, FaultAction.CRASH, target)

    @pytest.mark.parametrize(
        "target, shard", (("shard:0", 0), ("shard:12", 12), ("s0:n0", 0), ("s3:n11", 3))
    )
    def test_target_shard_reads_the_shard_of_either_grammar(self, target, shard):
        assert target_shard(target) == shard

    def test_target_shard_rejects_a_malformed_target(self):
        with pytest.raises(UnsupportedFaultError):
            target_shard("node-3")

    def test_unsupported_fault_error_is_a_configuration_error(self):
        # Existing except ConfigurationError sites keep catching it.
        assert issubclass(UnsupportedFaultError, ConfigurationError)


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(-0.1, FaultAction.CRASH, "shard:0")

    def test_gray_actions_require_a_magnitude(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.SLOW_SHARD, "shard:0")
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.FLAKY_SHARD, "shard:0")

    def test_gray_magnitude_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.SLOW_SHARD, "shard:0", magnitude=0.9)
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.FLAKY_SHARD, "shard:0", magnitude=0.0)
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.FLAKY_SHARD, "shard:0", magnitude=1.5)
        FaultEvent(1.0, FaultAction.SLOW_SHARD, "shard:0", magnitude=1.0)
        FaultEvent(1.0, FaultAction.FLAKY_SHARD, "shard:0", magnitude=1.0)

    def test_non_gray_actions_must_not_carry_a_magnitude(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.CRASH, "shard:0", magnitude=2.0)
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.RESTORE, "shard:0", magnitude=2.0)


class TestReprTimeline:
    def test_events_sort_by_time_at_construction(self):
        plan = FaultPlan(
            events=[
                FaultEvent(9.0, FaultAction.RECOVER, "shard:0"),
                FaultEvent(1.0, FaultAction.CRASH, "shard:0"),
            ]
        )
        assert [event.time for event in plan.events] == [1.0, 9.0]

    def test_same_time_events_sort_stably_by_target_then_action(self):
        # Construction order must not leak into the canonical timeline:
        # same-instant events order by (time, target, action) so two seeded
        # plans with identical events always repr identically.
        events = [
            FaultEvent(5.0, FaultAction.SLOW_SHARD, "shard:1", magnitude=4.0),
            FaultEvent(5.0, FaultAction.CRASH, "shard:0"),
            FaultEvent(5.0, FaultAction.FLAKY_SHARD, "shard:1", magnitude=0.2),
        ]
        forward = FaultPlan(events=events)
        backward = FaultPlan(events=list(reversed(events)))
        expected = [
            ("shard:0", FaultAction.CRASH),
            ("shard:1", FaultAction.FLAKY_SHARD),
            ("shard:1", FaultAction.SLOW_SHARD),
        ]
        assert [(e.target, e.action) for e in forward.events] == expected
        assert forward.events == backward.events
        assert repr(forward) == repr(backward)


class TestBuilders:
    def test_brownout_builder_timeline(self):
        plan = FaultPlan.brownout(shard=1, at=2.0, recover_at=8.0, slow_factor=3.0, drop_rate=0.2)
        assert plan.name == "brownout/shard=1"
        actions = [event.action for event in plan.events]
        # Canonical tie order at the onset instant: flaky_shard < slow_shard
        # (sorted by action name; the gray toggles commute).
        assert actions == [FaultAction.FLAKY_SHARD, FaultAction.SLOW_SHARD, FaultAction.RESTORE]
        assert all(event.target == "shard:1" for event in plan.events)
        assert plan.events[0].magnitude == pytest.approx(0.2)
        assert plan.events[1].magnitude == pytest.approx(3.0)
        assert plan.events[-1].time == pytest.approx(8.0)

    def test_brownout_without_drops_skips_the_flaky_event(self):
        plan = FaultPlan.brownout(drop_rate=0.0)
        assert [event.action for event in plan.events] == [
            FaultAction.SLOW_SHARD,
            FaultAction.RESTORE,
        ]

    def test_flaky_builder(self):
        plan = FaultPlan.flaky(shard=0, at=1.0, recover_at=4.0, drop_rate=0.5)
        assert plan.name == "flaky/shard=0"
        assert [event.action for event in plan.events] == [
            FaultAction.FLAKY_SHARD,
            FaultAction.RESTORE,
        ]

    def test_builders_validate_the_window(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.brownout(at=5.0, recover_at=5.0)
        with pytest.raises(ConfigurationError):
            FaultPlan.flaky(at=5.0, recover_at=2.0)


    def test_rolling_crashes_take_one_primary_per_shard_in_turn(self):
        plan = FaultPlan.rolling_primary_crashes([2, 0, 1], start=10.0, spacing=5.0)
        assert plan.name == "rolling-crashes/3-shards"
        assert [(event.time, event.action, event.target) for event in plan.events] == [
            (10.0, FaultAction.CRASH, "shard:2"),
            (15.0, FaultAction.CRASH, "shard:0"),
            (20.0, FaultAction.CRASH, "shard:1"),
        ]

    def test_rolling_crashes_with_a_downtime_recover_each_primary(self):
        plan = FaultPlan.rolling_primary_crashes([0, 1], start=1.0, spacing=2.0, downtime=3.0)
        # Time order: shard 1 crashes (t=3) before shard 0 recovers (t=4).
        assert [(event.time, event.action, event.target) for event in plan.events] == [
            (1.0, FaultAction.CRASH, "shard:0"),
            (3.0, FaultAction.CRASH, "shard:1"),
            (4.0, FaultAction.RECOVER, "shard:0"),
            (6.0, FaultAction.RECOVER, "shard:1"),
        ]

    def test_a_rolling_drill_over_no_shards_is_empty(self):
        plan = FaultPlan.rolling_primary_crashes([])
        assert len(plan.events) == 0
        assert plan.name == "rolling-crashes/0-shards"
