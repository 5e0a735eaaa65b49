"""Tests for the bounded message queues."""

from __future__ import annotations

import pytest

from repro.kvstore import MessageQueue


class TestMessageQueue:
    def test_fifo_order(self):
        queue = MessageQueue("test")
        queue.offer("a")
        queue.offer("b")
        assert queue.drain(1) == ["a"]
        assert queue.drain(1) == ["b"]
        assert queue.drain(1) == []

    def test_bounded_queue_drops_overflow(self):
        queue = MessageQueue("bounded", capacity=2)
        assert queue.offer(1) is True
        assert queue.offer(2) is True
        assert queue.offer(3) is False
        assert len(queue) == 2
        assert queue.dropped == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MessageQueue("bad", capacity=0)

    def test_drain_all(self):
        queue = MessageQueue("test")
        for item in range(5):
            queue.offer(item)
        assert queue.drain() == [0, 1, 2, 3, 4]
        assert len(queue) == 0

    def test_drain_limited(self):
        queue = MessageQueue("test")
        for item in range(5):
            queue.offer(item)
        assert queue.drain(2) == [0, 1]
        assert len(queue) == 3

    def test_counters(self):
        queue = MessageQueue("test", capacity=1)
        queue.offer("a")
        queue.offer("b")
        queue.drain(1)
        assert queue.offered == 2
        assert queue.accepted == 1
        assert queue.dropped == 1
        assert queue.consumed == 1

    def test_offer_counts_accepted_and_dropped(self):
        queue = MessageQueue("bounded", capacity=3)
        assert [queue.offer(item) for item in range(5)] == [True] * 3 + [False] * 2
        assert (queue.offered, queue.accepted, queue.dropped) == (5, 3, 2)
        assert queue.drain() == [0, 1, 2]

    def test_unbounded_queue_never_drops(self):
        queue = MessageQueue("unbounded")
        assert all(queue.offer(item) for item in range(1000))
        assert queue.dropped == 0
        assert len(queue) == 1000

    def test_drain_counts_consumed(self):
        queue = MessageQueue("test")
        for item in range(5):
            queue.offer(item)
        queue.drain(2)
        queue.drain(10)
        assert queue.consumed == 5
        assert queue.drain() == []
        assert queue.consumed == 5

    def test_space_frees_after_drain(self):
        queue = MessageQueue("bounded", capacity=1)
        assert queue.offer("a")
        assert not queue.offer("b")
        assert queue.drain(1) == ["a"]
        assert queue.offer("c")
        assert queue.drain() == ["c"]

    def test_bool(self):
        queue = MessageQueue("test")
        assert not queue
        queue.offer("item")
        assert queue
        queue.drain()
        assert not queue
