"""Tests for the clock abstractions."""

from __future__ import annotations

import pytest

from repro.clock import Clock, VirtualClock


class TestVirtualClock:
    def test_starts_at_given_time(self):
        assert VirtualClock().now() == 0.0
        assert VirtualClock(start=5.0).now() == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            VirtualClock(start=-1.0)

    def test_advance_moves_forward(self):
        clock = VirtualClock()
        assert clock.advance(1.5) == 1.5
        assert clock.now() == 1.5
        clock.advance(0.5)
        assert clock.now() == 2.0

    def test_advance_rejects_negative_delta(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_to_never_goes_backwards(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        assert clock.now() == 10.0
        clock.advance_to(5.0)
        assert clock.now() == 10.0

    def test_zero_advance_is_allowed(self):
        clock = VirtualClock()
        clock.advance(0.0)
        assert clock.now() == 0.0

    def test_satisfies_clock_protocol(self):
        assert isinstance(VirtualClock(), Clock)
