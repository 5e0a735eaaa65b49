"""The resilience runtime's per-target breakers and per-request deadlines.

One runtime serves a whole deployment: it builds a breaker per target on
first use (none when the config has no breaker policy), reports how many
sit in each state, and hands every request a fresh deadline budget (none
when the config sets no deadline).
"""

from __future__ import annotations

from dataclasses import replace

from repro.clock import VirtualClock
from repro.resilience import BreakerPolicy, ResilienceConfig, ResilienceRuntime

POLICY = BreakerPolicy(failure_threshold=2, cooldown=1.0)


def runtime(**overrides):
    clock = VirtualClock()
    return clock, ResilienceRuntime(replace(ResilienceConfig(breaker=POLICY), **overrides), clock)


def test_no_breaker_is_built_before_a_target_is_used():
    _clock, layer = runtime()
    assert layer.breaker_state_counts() == {
        "resilience_breakers": 0.0,
        "resilience_breakers_closed": 0.0,
        "resilience_breakers_open": 0.0,
        "resilience_breakers_half_open": 0.0,
    }


def test_breaker_states_are_counted_per_target():
    clock, layer = runtime()
    assert layer.allow("shard:0") and layer.allow("shard:1") and layer.allow("s2:n1")
    layer.record_failure("s2:n1")
    layer.record_failure("s2:n1")
    clock.advance(1.0)
    assert layer.allow("s2:n1")  # the cooldown passed: a half-open probe
    layer.record_failure("shard:1")
    layer.record_failure("shard:1")
    counts = layer.breaker_state_counts()
    assert counts["resilience_breakers"] == 3.0
    assert counts["resilience_breakers_closed"] == 1.0
    assert counts["resilience_breakers_open"] == 1.0
    assert counts["resilience_breakers_half_open"] == 1.0
    assert not layer.allow("shard:1")


def test_a_success_recloses_a_half_open_breaker():
    clock, layer = runtime()
    layer.record_failure("shard:0")
    layer.record_failure("shard:0")
    clock.advance(1.0)
    assert layer.allow("shard:0")
    layer.record_success("shard:0")
    assert layer.breaker_state_counts()["resilience_breakers_closed"] == 1.0


def test_without_a_breaker_policy_every_target_is_allowed():
    _clock, layer = runtime(breaker=None)
    for _ in range(10):
        layer.record_failure("shard:0")
    assert layer.allow("shard:0")
    layer.record_success("shard:0")
    assert layer.breaker("shard:0") is None
    assert layer.breaker_state_counts()["resilience_breakers"] == 0.0


def test_every_request_gets_a_fresh_deadline_budget():
    _clock, layer = runtime(request_deadline=0.5)
    first, second = layer.new_deadline(), layer.new_deadline()
    assert first is not second
    assert first.deadline == 0.5 and first.spent == 0.0
    assert not first.exhausted


def test_no_deadline_is_set_without_one_in_the_config():
    _clock, layer = runtime(request_deadline=None)
    assert layer.new_deadline() is None
