"""Tests for the discrete-event queue and the latency models."""

from __future__ import annotations

import math

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

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1.0, lambda: None)

    def test_pop_on_empty(self):
        queue = EventQueue()
        assert queue.pop_if_before(math.inf) is None
        assert len(queue) == 0

    def test_len_counts_queued_entries(self):
        queue = EventQueue()
        for i in range(10):
            queue.schedule(float(i), lambda: None)
        queue.push(20.0, lambda: None)
        assert len(queue) == 11
        queue.pop_if_before(math.inf)
        assert len(queue) == 10
        assert queue.processed == 1

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
        assert queue.pop_if_before(math.inf)[0] == 5.0

    def test_schedule_many_onto_populated_queue(self):
        queue = EventQueue()
        executed = []
        queue.schedule(2.0, lambda: executed.append("single"))
        queue.schedule_many([(1.0, lambda: executed.append("bulk-early")),
                            (3.0, lambda: executed.append("bulk-late"))])
        queue.run_until(VirtualClock(), 5.0)
        assert executed == ["bulk-early", "single", "bulk-late"]

    def test_pop_if_before_respects_the_bound(self):
        queue = EventQueue()
        queue.schedule(2.0, lambda: None)
        queue.schedule(9.0, lambda: None)
        entry = queue.pop_if_before(5.0)
        assert entry is not None and entry[:2] == (2.0, 0)
        assert queue.pop_if_before(5.0) is None  # the tail is beyond the bound
        assert len(queue) == 1


    def test_an_event_exactly_at_the_bound_is_due(self):
        queue = EventQueue()
        queue.schedule(5.0, lambda: None)
        assert queue.pop_if_before(4.999) is None
        assert queue.pop_if_before(5.0)[0] == 5.0

    def test_schedule_accepts_time_zero(self):
        queue = EventQueue()
        queue.schedule(0.0, lambda: None)
        assert queue.pop_if_before(0.0)[0] == 0.0

    def test_the_clock_reads_each_event_time_while_it_runs(self):
        queue = EventQueue()
        clock = VirtualClock()
        seen = []
        for timestamp in (0.25, 1.5, 4.0):
            queue.schedule(timestamp, lambda: seen.append(clock.now()))
        queue.run_until(clock, 6.0)
        assert seen == [0.25, 1.5, 4.0]
        assert clock.now() == 6.0

    def test_events_scheduled_while_running_run_in_the_same_pass_when_due(self):
        queue = EventQueue()
        clock = VirtualClock()
        executed = []

        def first():
            executed.append("first")
            queue.schedule(clock.now() + 1.0, lambda: executed.append("follow-up"))
            queue.schedule(clock.now() + 10.0, lambda: executed.append("too late"))

        queue.schedule(1.0, first)
        assert queue.run_until(clock, 5.0) == 2
        assert executed == ["first", "follow-up"]
        assert len(queue) == 1

    def test_a_small_batch_onto_a_large_heap_keeps_time_and_tie_order(self):
        # A batch under a quarter of the heap is pushed entry by entry rather
        # than re-heapified; the order contract is the same.
        queue = EventQueue()
        executed = []
        for index in range(20):
            queue.schedule(float(index), lambda i=index: executed.append(("single", i)))
        queue.schedule_many(
            [(3.0, lambda: executed.append(("bulk", 3))), (0.5, lambda: executed.append(("bulk", 0)))]
        )
        queue.run_until(VirtualClock(), 30.0)
        assert executed.index(("bulk", 0)) == 1  # after single 0.0, before single 1.0
        assert executed.index(("bulk", 3)) == executed.index(("single", 3)) + 1

    def test_sequences_continue_across_schedule_push_and_schedule_many(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.schedule_many([(1.0, lambda: None), (1.0, lambda: None)])
        queue.push(1.0, lambda: None)
        assert [queue.pop_if_before(1.0)[1] for _ in range(4)] == [0, 1, 2, 3]

    def test_processed_counts_every_pop_across_runs(self):
        queue = EventQueue()
        queue.schedule_many((float(index), lambda: None) for index in range(6))
        clock = VirtualClock()
        assert queue.run_until(clock, 2.0) == 3
        assert queue.run_until(clock, 10.0) == 3
        assert queue.processed == 6 and len(queue) == 0

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
        topology = NetworkTopology()
        client = topology.read_latency("client")
        cdn = topology.read_latency("cdn")
        origin = topology.read_latency("origin")
        assert client < cdn < origin
        assert origin > 0.1  # wide-area round trip dominates

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            NetworkTopology().read_latency("nonexistent")

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
