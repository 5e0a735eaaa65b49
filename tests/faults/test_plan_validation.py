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

    def test_malformed_peer_fails_at_construction(self):
        with pytest.raises(UnsupportedFaultError):
            FaultEvent(1.0, FaultAction.PARTITION, "s0:n0", peer="bogus")

    def test_unsupported_fault_error_is_a_configuration_error(self):
        # Existing except ConfigurationError sites keep catching it.
        assert issubclass(UnsupportedFaultError, ConfigurationError)


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(-0.1, FaultAction.CRASH, "shard:0")

    def test_partition_requires_a_peer(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, FaultAction.PARTITION, "s0:n0")

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


class TestSplitByShard:
    def test_gray_events_route_with_their_magnitude(self):
        plan = FaultPlan(
            events=[
                FaultEvent(1.0, FaultAction.SLOW_SHARD, "shard:0", magnitude=4.0),
                FaultEvent(1.0, FaultAction.FLAKY_SHARD, "shard:1", magnitude=0.3),
                FaultEvent(2.0, FaultAction.RESTORE, "shard:1"),
            ]
        )
        first, second = plan.split_by_shard(2, 1)
        assert [event.action for event in first.events] == [FaultAction.SLOW_SHARD]
        assert first.events[0].magnitude == pytest.approx(4.0)
        assert [event.action for event in second.events] == [
            FaultAction.FLAKY_SHARD,
            FaultAction.RESTORE,
        ]
        # Targets are rewritten into local shard numbering.
        assert second.events[0].target == "shard:0"
        assert second.events[0].magnitude == pytest.approx(0.3)

    def test_node_targets_are_rewritten_into_local_numbering(self):
        plan = FaultPlan(events=[FaultEvent(1.0, FaultAction.CRASH, "s3:n1")])
        parts = plan.split_by_shard(2, 2)
        assert parts[0].events == ()
        assert [(event.target, event.action) for event in parts[1].events] == [
            ("s1:n1", FaultAction.CRASH)
        ]

    def test_a_link_inside_one_partition_keeps_its_local_peer(self):
        plan = FaultPlan.replica_partition(shard=3, replica_index=2, at=1.0, heal_at=2.0)
        _, second = plan.split_by_shard(2, 2)
        assert [(e.action, e.target, e.peer) for e in second.events] == [
            (FaultAction.PARTITION, "shard:1", "s1:n2"),
            (FaultAction.HEAL, "shard:1", "s1:n2"),
        ]

    def test_a_link_across_partitions_is_unsupported(self):
        plan = FaultPlan(
            events=[FaultEvent(1.0, FaultAction.PARTITION, "shard:0", peer="s1:n1")]
        )
        with pytest.raises(UnsupportedFaultError, match="different partitions"):
            plan.split_by_shard(2, 1)

    @pytest.mark.parametrize("target", ["shard:4", "s4:n0"])
    def test_a_target_outside_the_fleet_is_unsupported(self, target):
        plan = FaultPlan(events=[FaultEvent(1.0, FaultAction.CRASH, target)])
        with pytest.raises(UnsupportedFaultError, match="outside the deployment"):
            plan.split_by_shard(2, 2)

    @pytest.mark.parametrize("num_partitions, shards_per_partition", [(0, 1), (1, 0), (-1, 2)])
    def test_a_non_positive_geometry_is_rejected(self, num_partitions, shards_per_partition):
        with pytest.raises(ConfigurationError, match="must be positive"):
            FaultPlan.primary_crash().split_by_shard(num_partitions, shards_per_partition)

    def test_every_partition_gets_a_named_sub_plan(self):
        plan = FaultPlan.primary_crash(shard=1, at=3.0, recover_at=6.0)
        parts = plan.split_by_shard(3, 1)
        assert [part.name for part in parts] == [
            f"primary-crash/shard=1/part{index}" for index in range(3)
        ]
        assert [len(part.events) for part in parts] == [0, 2, 0]

    def test_a_partition_keeps_the_global_time_order(self):
        plan = FaultPlan.rolling_primary_crashes([0, 2, 1, 3], start=1.0, spacing=2.0, downtime=1.5)
        for part in plan.split_by_shard(2, 2):
            times = [event.time for event in part.events]
            assert times == sorted(times) and len(times) == 4
