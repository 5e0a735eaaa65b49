"""Property-based tests for the EventQueue under heavy lazy cancellation.

The queue's determinism guarantee -- pops come out in ``(timestamp,
insertion sequence)`` order, cancellation is lazy, compaction is invisible
-- is what every seeded run's reproducibility leans on.  These
properties drive randomized interleavings of schedule/cancel/pop against a
simple sorted-list model.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.simulation import EventQueue

timestamps = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=32)
#: A script: for each scheduled event, its timestamp and whether it gets
#: cancelled before the drain.
schedule_scripts = st.lists(st.tuples(timestamps, st.booleans()), max_size=120)


def drain(queue, end_time=float("inf")):
    popped = []
    while True:
        entry = queue.pop_if_before(end_time)
        if entry is None:
            return popped
        popped.append(entry[2])


class TestEventQueueProperties:
    @given(schedule_scripts)
    @settings(max_examples=80)
    def test_pops_preserve_timestamp_then_insertion_order(self, script):
        queue = EventQueue()
        handles = [queue.schedule(timestamp, lambda: None) for timestamp, _ in script]
        survivors = []
        for handle, (_timestamp, cancel) in zip(handles, script):
            if cancel:
                handle.cancel()
            else:
                survivors.append(handle)
        expected = sorted(survivors, key=lambda event: (event.timestamp, event.sequence))
        assert drain(queue) == expected
        assert len(queue) == 0

    @given(schedule_scripts, timestamps)
    @settings(max_examples=80)
    def test_epoch_slicing_is_invisible(self, script, boundary):
        """Draining through an intermediate boundary changes nothing."""
        whole = EventQueue()
        sliced = EventQueue()
        for timestamp, _ in script:
            whole.schedule(timestamp, lambda: None)
            sliced.schedule(timestamp, lambda: None)
        want = [(event.timestamp, event.sequence) for event in drain(whole)]
        first = drain(sliced, boundary)
        assert all(event.timestamp <= boundary for event in first)
        got = [(event.timestamp, event.sequence) for event in first + drain(sliced)]
        assert got == want

    @given(schedule_scripts)
    @settings(max_examples=60)
    def test_compaction_never_drops_live_events(self, script):
        """Cancelling enough events to trigger _compact loses nothing live."""
        queue = EventQueue()
        handles = [queue.schedule(timestamp, lambda: None) for timestamp, _ in script]
        # Cancel every other event, then every remaining even-sequence event:
        # repeatedly pushes the cancelled-in-heap debt over the compaction
        # threshold (cancelled * 2 > heap size).
        survivors = list(handles)
        for round_start in (1, 2):
            for index in range(round_start, len(survivors), 2):
                survivors[index].cancel()
            survivors = [event for event in survivors if not event.cancelled]
        assert len(queue) == len(survivors)
        expected = sorted(survivors, key=lambda event: (event.timestamp, event.sequence))
        assert drain(queue) == expected

    @given(schedule_scripts)
    @settings(max_examples=60)
    def test_interleaved_pop_and_cancel(self, script):
        """Cancel-after-partial-drain only affects still-queued events."""
        queue = EventQueue()
        handles = [queue.schedule(timestamp, lambda: None) for timestamp, _ in script]
        half = len(handles) // 2
        popped = [queue.pop() for _ in range(half)]
        popped = [event for event in popped if event is not None]
        for handle, (_timestamp, cancel) in zip(handles, script):
            if cancel:
                handle.cancel()  # no-op for already-popped events
        remaining = drain(queue)
        assert [event for event in remaining if event.cancelled] == []
        assert len(popped) + len(remaining) + sum(
            1 for event in handles if event.cancelled and event not in popped
        ) == len(handles)
        # Ordering still holds across the whole observed stream.
        observed = popped + remaining
        keys = [(event.timestamp, event.sequence) for event in observed]
        assert keys == sorted(keys)

    @given(st.lists(timestamps, max_size=80), st.lists(timestamps, max_size=80))
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
        want = [(event.timestamp, event.sequence) for event in drain(sequential)]
        got = [(event.timestamp, event.sequence) for event in drain(batched)]
        assert got == want
