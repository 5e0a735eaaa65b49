"""The registry of live slow/flaky conditions the injector mutates."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults.gray import GrayFailureState


@pytest.mark.parametrize("factor", [0.0, 0.5, 0.999])
def test_a_slow_factor_below_one_is_rejected(factor):
    state = GrayFailureState()
    with pytest.raises(ConfigurationError, match="slow factor"):
        state.set_slow("shard:0", factor)
    assert not state.active


@pytest.mark.parametrize("rate", [0.0, -0.1, 1.5])
def test_a_drop_rate_outside_the_unit_interval_is_rejected(rate):
    state = GrayFailureState()
    with pytest.raises(ConfigurationError, match="flaky drop rate"):
        state.set_flaky("shard:0", rate)
    assert not state.active


def test_a_healthy_state_neither_slows_nor_drops():
    state = GrayFailureState()
    assert not state.active
    assert state.slow_factor(0) == 1.0
    assert state.slow_factor(0, "s0:n0") == 1.0
    assert not state.should_drop_request(0)
    assert not state.should_drop_response("s0:n0")


def test_the_slower_of_shard_and_node_condition_applies():
    state = GrayFailureState()
    state.set_slow("shard:1", 2.0)
    state.set_slow("s1:n2", 5.0)
    assert state.slow_factor(1) == 2.0
    assert state.slow_factor(1, "s1:n2") == 5.0
    assert state.slow_factor(1, "s1:n0") == 2.0
    assert state.slow_factor(0, "s0:n0") == 1.0


def test_restore_clears_one_target_and_keeps_the_rest():
    state = GrayFailureState()
    state.set_slow("shard:0", 3.0)
    state.set_flaky("shard:0", 1.0)
    state.set_slow("shard:1", 2.0)
    state.restore("shard:0")
    assert state.active
    assert state.slow_factor(0) == 1.0 and not state.should_drop_request(0)
    assert state.slow_factor(1) == 2.0
    state.restore("shard:1")
    assert not state.active
    state.restore("shard:7")  # nothing there: a no-op
    assert not state.active


def test_a_drop_rate_of_one_drops_every_request():
    state = GrayFailureState()
    state.set_flaky("shard:2", 1.0)
    assert all(state.should_drop_request(2) for _ in range(50))
    assert not any(state.should_drop_request(1) for _ in range(50))


def test_drop_decisions_replay_for_the_same_seed_and_differ_across_seeds():
    def decisions(seed):
        state = GrayFailureState(seed=seed)
        state.set_flaky("shard:0", 0.5)
        return [state.should_drop_request(0) for _ in range(64)]

    assert decisions(3) == decisions(3)
    assert decisions(3) != decisions(4)
    assert 0 < sum(decisions(3)) < 64


def test_response_drops_follow_node_targets_only():
    state = GrayFailureState()
    state.set_flaky("s0:n1", 1.0)
    assert state.should_drop_response("s0:n1")
    assert not state.should_drop_response("s0:n0")
    assert not state.should_drop_response(None)
    # A node-level condition never drops requests before admission.
    assert not state.should_drop_request(0)
