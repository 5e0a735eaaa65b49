"""Tests for the discrete-event queue and the latency models."""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.simulation import EventQueue, LatencyModel, NetworkTopology, REGION_RTT_SECONDS


class TestEventQueue:
    def test_events_execute_in_timestamp_order(self):
        queue = EventQueue()
        executed = []
        queue.schedule(3.0, lambda: executed.append("c"))
        queue.schedule(1.0, lambda: executed.append("a"))
        queue.schedule(2.0, lambda: executed.append("b"))
        clock = VirtualClock()
        queue.run_until(clock, 10.0)
        assert executed == ["a", "b", "c"]
        assert clock.now() == 10.0

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        executed = []
        queue.schedule(1.0, lambda: executed.append("first"))
        queue.schedule(1.0, lambda: executed.append("second"))
        queue.run_until(VirtualClock(), 2.0)
        assert executed == ["first", "second"]

    def test_run_until_respects_end_time(self):
        queue = EventQueue()
        executed = []
        queue.schedule(1.0, lambda: executed.append("early"))
        queue.schedule(5.0, lambda: executed.append("late"))
        clock = VirtualClock()
        count = queue.run_until(clock, 2.0)
        assert count == 1
        assert executed == ["early"]
        assert len(queue) == 1

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        executed = []
        event = queue.schedule(1.0, lambda: executed.append("cancelled"))
        queue.schedule(2.0, lambda: executed.append("kept"))
        event.cancel()
        queue.run_until(VirtualClock(), 5.0)
        assert executed == ["kept"]

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        queue.schedule(4.0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 4.0

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1.0, lambda: None)

    def test_pop_on_empty(self):
        assert EventQueue().pop() is None
        assert not EventQueue()

    def test_len_is_live_event_count(self):
        queue = EventQueue()
        events = [queue.schedule(float(i), lambda: None) for i in range(10)]
        assert len(queue) == 10
        events[3].cancel()
        events[7].cancel()
        assert len(queue) == 8
        # Double-cancel must not double-count.
        events[3].cancel()
        assert len(queue) == 8
        queue.pop()
        assert len(queue) == 7
        assert bool(queue)

    def test_schedule_many_matches_individual_schedules(self):
        """Bulk scheduling preserves timestamp order and insertion-order ties."""
        times = [2.0, 1.0, 1.0, 3.0, 1.0, 0.5]
        reference = EventQueue()
        ref_order = []
        for index, timestamp in enumerate(times):
            reference.schedule(timestamp, lambda i=index: ref_order.append(i))
        bulk = EventQueue()
        bulk_order = []
        bulk.schedule_many(
            (timestamp, lambda i=index: bulk_order.append(i))
            for index, timestamp in enumerate(times)
        )
        assert len(bulk) == len(times)
        reference.run_until(VirtualClock(), 10.0)
        bulk.run_until(VirtualClock(), 10.0)
        assert bulk_order == ref_order

    def test_schedule_many_rejects_negative_timestamps(self):
        with pytest.raises(ValueError):
            EventQueue().schedule_many([(1.0, lambda: None), (-0.1, lambda: None)])

    def test_schedule_many_rejects_bad_batches_atomically(self):
        """A bad timestamp mid-batch must not leave a partial batch behind."""
        queue = EventQueue()
        queue.schedule(5.0, lambda: None)
        with pytest.raises(ValueError):
            queue.schedule_many([(0.5, lambda: None), (-1.0, lambda: None)])
        assert len(queue) == 1
        assert queue.peek_time() == 5.0

    def test_cancel_after_pop_is_a_noop(self):
        """Cancelling an already-popped event must not corrupt the counters."""
        queue = EventQueue()
        first = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        popped = queue.pop()
        assert popped is first
        first.cancel()
        first.cancel()
        assert len(queue) == 1
        assert bool(queue)
        assert queue.pop().timestamp == 2.0

    def test_schedule_many_onto_populated_queue(self):
        queue = EventQueue()
        executed = []
        queue.schedule(2.0, lambda: executed.append("single"))
        queue.schedule_many([(1.0, lambda: executed.append("bulk-early")),
                            (3.0, lambda: executed.append("bulk-late"))])
        queue.run_until(VirtualClock(), 5.0)
        assert executed == ["bulk-early", "single", "bulk-late"]

    def test_cancellation_during_run_until(self):
        """An event cancelled by an earlier event in the same run is skipped."""
        queue = EventQueue()
        executed = []
        victim = queue.schedule(2.0, lambda: executed.append("victim"))
        queue.schedule(1.0, lambda: (executed.append("assassin"), victim.cancel()))
        queue.schedule(3.0, lambda: executed.append("survivor"))
        count = queue.run_until(VirtualClock(), 5.0)
        assert executed == ["assassin", "survivor"]
        assert count == 2
        assert queue.processed == 2

    def test_pop_if_before_respects_cancelled_head_and_bound(self):
        queue = EventQueue()
        head = queue.schedule(1.0, lambda: None, label="head")
        queue.schedule(2.0, lambda: None, label="mid")
        queue.schedule(9.0, lambda: None, label="tail")
        head.cancel()
        entry = queue.pop_if_before(5.0)
        assert entry is not None and entry[2].label == "mid"
        assert queue.pop_if_before(5.0) is None  # tail is beyond the bound
        assert len(queue) == 1

    def test_mass_cancellation_compacts_lazily(self):
        """Cancelling most of the heap keeps len/peek/pop consistent."""
        queue = EventQueue()
        events = [queue.schedule(float(i), lambda: None) for i in range(100)]
        for event in events[:90]:
            event.cancel()
        assert len(queue) == 10
        assert queue.peek_time() == 90.0
        popped = []
        while queue:
            popped.append(queue.pop().timestamp)
        assert popped == [float(i) for i in range(90, 100)]


class TestLatencyModel:
    def test_zero_jitter_returns_mean(self):
        model = LatencyModel(mean=0.1)
        assert model.sample() == 0.1

    def test_jitter_respects_minimum(self):
        model = LatencyModel(mean=0.001, jitter=0.01, minimum=0.0005)
        assert all(model.sample() >= 0.0005 for _ in range(200))

    def test_reseed_reproducibility(self):
        model = LatencyModel(mean=0.1, jitter=0.01)
        model.reseed(5)
        first = [model.sample() for _ in range(10)]
        model.reseed(5)
        second = [model.sample() for _ in range(10)]
        assert first == second

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LatencyModel(mean=-1.0)
        with pytest.raises(ValueError):
            LatencyModel(mean=0.1, jitter=-0.1)


class TestNetworkTopology:
    def test_levels_have_expected_ordering(self):
        topology = NetworkTopology.no_jitter()
        client = topology.read_latency("client")
        cdn = topology.read_latency("cdn")
        origin = topology.read_latency("origin")
        assert client < cdn < origin
        assert origin > 0.1  # wide-area round trip dominates

    def test_write_latency_includes_origin_round_trip(self):
        topology = NetworkTopology.no_jitter()
        assert topology.write_latency() > topology.read_latency("cdn")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            NetworkTopology.no_jitter().read_latency("nonexistent")

    def test_region_table_contains_figure1_regions(self):
        assert {"Frankfurt", "California", "Sydney", "Tokyo"} <= set(REGION_RTT_SECONDS)
        assert REGION_RTT_SECONDS["Frankfurt"] < REGION_RTT_SECONDS["Sydney"]

    def test_reseed_applies_to_all_paths(self):
        topology = NetworkTopology()
        topology.reseed(11)
        first = (topology.cdn_hit.sample(), topology.origin_round_trip.sample())
        topology.reseed(11)
        second = (topology.cdn_hit.sample(), topology.origin_round_trip.sample())
        assert first == second
