"""Tests for the bounded message queues."""

from __future__ import annotations

import pytest

from repro.kvstore import MessageQueue


class TestMessageQueue:
    def test_fifo_order(self):
        queue = MessageQueue("test")
        queue.offer("a")
        queue.offer("b")
        assert queue.poll() == "a"
        assert queue.poll() == "b"
        assert queue.poll() is None

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
        queue.offer_all(range(5))
        assert queue.drain() == [0, 1, 2, 3, 4]
        assert len(queue) == 0

    def test_drain_limited(self):
        queue = MessageQueue("test")
        queue.offer_all(range(5))
        assert queue.drain(2) == [0, 1]
        assert len(queue) == 3

    def test_peek_does_not_remove(self):
        queue = MessageQueue("test")
        queue.offer("item")
        assert queue.peek() == "item"
        assert len(queue) == 1

    def test_counters(self):
        queue = MessageQueue("test", capacity=1)
        queue.offer("a")
        queue.offer("b")
        queue.poll()
        assert queue.offered == 2
        assert queue.accepted == 1
        assert queue.dropped == 1
        assert queue.consumed == 1

    def test_offer_all_returns_accepted_count(self):
        queue = MessageQueue("bounded", capacity=3)
        assert queue.offer_all(range(5)) == 3
        assert (queue.offered, queue.accepted, queue.dropped) == (5, 3, 2)
        assert queue.drain() == [0, 1, 2]

    def test_unbounded_queue_never_drops(self):
        queue = MessageQueue("unbounded")
        assert queue.offer_all(range(1000)) == 1000
        assert queue.dropped == 0
        assert len(queue) == 1000

    def test_drain_counts_consumed(self):
        queue = MessageQueue("test")
        queue.offer_all(range(5))
        queue.drain(2)
        queue.drain(10)
        assert queue.consumed == 5
        assert queue.drain() == []
        assert queue.consumed == 5

    def test_empty_poll_and_peek(self):
        queue = MessageQueue("test")
        assert queue.poll() is None
        assert queue.peek() is None
        assert queue.consumed == 0

    def test_space_frees_after_poll(self):
        queue = MessageQueue("bounded", capacity=1)
        assert queue.offer("a")
        assert not queue.offer("b")
        assert queue.poll() == "a"
        assert queue.offer("c")
        assert queue.drain() == ["c"]

    def test_clear_discards_without_consuming(self):
        queue = MessageQueue("test")
        queue.offer_all(range(3))
        queue.clear()
        assert len(queue) == 0
        assert queue.consumed == 0
        assert queue.accepted == 3

    def test_clear_and_bool(self):
        queue = MessageQueue("test")
        assert not queue
        queue.offer("item")
        assert queue
        queue.clear()
        assert not queue
