"""Property-based tests for the EventQueue's pop order.

The queue's determinism guarantee -- pops come out in ``(timestamp,
insertion sequence)`` order, however the entries were queued and however the
drain is sliced -- is what every seeded run's reproducibility leans on.
These properties drive randomized schedules against a sorted-list model.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.simulation import EventQueue

timestamps = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=32)
schedules = st.lists(timestamps, max_size=120)


def drain(queue, end_time=float("inf")):
    """The ``(timestamp, sequence)`` of every entry popped up to ``end_time``."""
    popped = []
    while True:
        entry = queue.pop_if_before(end_time)
        if entry is None:
            return popped
        popped.append(entry[:2])


class TestEventQueueProperties:
    @given(schedules)
    @settings(max_examples=80)
    def test_pops_preserve_timestamp_then_insertion_order(self, script):
        queue = EventQueue()
        for timestamp in script:
            queue.schedule(timestamp, lambda: None)
        assert drain(queue) == sorted((timestamp, index) for index, timestamp in enumerate(script))
        assert len(queue) == 0

    @given(schedules, timestamps)
    @settings(max_examples=80)
    def test_epoch_slicing_is_invisible(self, script, boundary):
        """Draining through an intermediate boundary changes nothing."""
        whole = EventQueue()
        sliced = EventQueue()
        for timestamp in script:
            whole.schedule(timestamp, lambda: None)
            sliced.schedule(timestamp, lambda: None)
        want = drain(whole)
        first = drain(sliced, boundary)
        assert all(timestamp <= boundary for timestamp, _ in first)
        assert first + drain(sliced) == want

    @given(schedules, schedules)
    @settings(max_examples=60)
    def test_schedule_many_ties_break_like_sequential_schedules(self, first, second):
        batched = EventQueue()
        sequential = EventQueue()
        batched.schedule_many((timestamp, lambda: None) for timestamp in first)
        for timestamp in first:
            sequential.schedule(timestamp, lambda: None)
        batched.schedule_many((timestamp, lambda: None) for timestamp in second)
        for timestamp in second:
            sequential.schedule(timestamp, lambda: None)
        assert drain(batched) == drain(sequential)
