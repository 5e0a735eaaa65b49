"""Cluster-level resilience: retries, breakers, deadlines, gray failures."""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.cluster import ClusterClient, QuaestorCluster
from repro.db.query import Query
from repro.errors import ConfigurationError
from repro.replication import ReplicationConfig
from repro.resilience import BreakerPolicy, ResilienceConfig, RetryPolicy
from repro.rest.messages import StatusCode
from repro.simulation.latency import LatencyModel


def build_cluster(
    num_shards=2,
    replication_factor=2,
    resilience=None,
    gray_seed=0,
    clock=None,
):
    clock = clock if clock is not None else VirtualClock()
    replication = ReplicationConfig(
        replication_factor=replication_factor,
        lag=LatencyModel(mean=0.01, jitter=0.0),
    )
    cluster = QuaestorCluster(
        num_shards=num_shards,
        clock=clock,
        matching_nodes=2,
        replication=replication,
        resilience=resilience,
        gray_seed=gray_seed,
    )
    facade = ClusterClient(cluster)
    for index in range(40):
        facade.handle_insert(
            "posts", {"_id": f"p{index:02d}", "category": index % 4, "views": index}
        )
    clock.advance(1.0)
    return clock, cluster, facade


def shard_of(cluster, collection, document_id):
    return cluster.router.record_read(collection, document_id)


class TestGraySurface:
    def test_slow_factor_combines_shard_and_node_levels(self):
        _, cluster, _ = build_cluster(resilience=ResilienceConfig())
        cluster.slow_target("shard:0", 3.0)
        cluster.slow_target("s0:n1", 5.0)
        assert cluster.gray.slow_factor(0, "s0:n0") == pytest.approx(3.0)
        assert cluster.gray.slow_factor(0, "s0:n1") == pytest.approx(5.0)
        assert cluster.gray.slow_factor(1, "s1:n0") == pytest.approx(1.0)
        cluster.restore_target("shard:0")
        assert cluster.gray.slow_factor(0, "s0:n0") == pytest.approx(1.0)

    def test_gray_events_are_counted(self):
        _, cluster, _ = build_cluster(resilience=ResilienceConfig())
        cluster.slow_target("shard:0", 2.0)
        cluster.flaky_target("shard:1", 0.5)
        cluster.restore_target("shard:0")
        counters = cluster.counters.as_dict()
        assert counters["gray_slow_events"] == 1
        assert counters["gray_flaky_events"] == 1
        assert counters["gray_restores"] == 1

    def test_invalid_magnitudes_are_rejected(self):
        _, cluster, _ = build_cluster()
        with pytest.raises(ConfigurationError):
            cluster.slow_target("shard:0", 0.5)
        with pytest.raises(ConfigurationError):
            cluster.flaky_target("shard:0", 0.0)

    def test_flaky_drops_are_seeded_and_deterministic(self):
        _, first, _ = build_cluster(gray_seed=7)
        _, second, _ = build_cluster(gray_seed=7)
        for cluster in (first, second):
            cluster.flaky_target("shard:0", 0.5)
        drops_first = [first.gray.should_drop_request(0) for _ in range(64)]
        drops_second = [second.gray.should_drop_request(0) for _ in range(64)]
        assert drops_first == drops_second
        assert any(drops_first) and not all(drops_first)


class TestReadRetries:
    def test_flaky_shard_reads_recover_via_retries(self):
        resilience = ResilienceConfig(retry=RetryPolicy(max_attempts=6), breaker=None, hedge=None)
        _, cluster, facade = build_cluster(resilience=resilience)
        cluster.flaky_target("shard:0", 0.45)
        ok = errors = 0
        for index in range(40):
            response = facade.handle_read("posts", f"p{index:02d}")
            if response.status is StatusCode.SERVICE_UNAVAILABLE:
                errors += 1
            else:
                ok += 1
        counters = cluster.counters.as_dict()
        assert counters["read_retries"] > 0
        assert counters["read_retry_successes"] > 0
        # With a 45% drop rate and 6 attempts, nearly everything succeeds.
        assert errors <= 2 and ok >= 38

    def test_without_resilience_flaky_reads_simply_fail(self):
        _, cluster, facade = build_cluster(resilience=None)
        cluster.flaky_target("shard:0", 0.45)
        statuses = [
            facade.handle_read("posts", f"p{index:02d}").status for index in range(40)
        ]
        assert StatusCode.SERVICE_UNAVAILABLE in statuses
        assert "read_retries" not in cluster.counters.as_dict()

    def test_retry_trace_accumulates_backoff_and_round_trips(self):
        resilience = ResilienceConfig(retry=RetryPolicy(max_attempts=4), breaker=None)
        _, cluster, facade = build_cluster(resilience=resilience)
        cluster.flaky_target("shard:0", 0.9)
        facade.handle_read("posts", "p00")
        trace = cluster.resilience_runtime.take_trace()
        assert trace.extra_round_trips > 0
        assert trace.backoff_s > 0.0
        # Draining resets: the next trace is empty again.
        assert cluster.resilience_runtime.take_trace().empty


class TestCircuitBreaker:
    def test_breaker_opens_on_a_dead_unreplicated_shard(self):
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2),
            breaker=BreakerPolicy(failure_threshold=4, cooldown=30.0),
            hedge=None,
        )
        clock, cluster, facade = build_cluster(
            replication_factor=1, resilience=resilience
        )
        shard = shard_of(cluster, "posts", "p00")
        cluster.crash_node(cluster.groups[shard].primary_node_id)
        for _ in range(20):
            facade.handle_read("posts", "p00")
        counters = cluster.counters.as_dict()
        assert counters["breaker_fast_fails"] > 0
        stats = cluster.statistics()
        assert stats["resilience_breakers_open"] >= 1.0

    def test_breaker_recovers_after_cooldown_and_shard_recovery(self):
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2),
            breaker=BreakerPolicy(failure_threshold=4, cooldown=5.0),
            hedge=None,
        )
        clock, cluster, facade = build_cluster(
            replication_factor=1, resilience=resilience
        )
        shard = shard_of(cluster, "posts", "p00")
        crashed = cluster.groups[shard].primary_node_id
        cluster.crash_node(crashed)
        for _ in range(10):
            facade.handle_read("posts", "p00")
        cluster.recover_node(crashed)
        clock.advance(6.0)
        response = facade.handle_read("posts", "p00")
        assert response.status is StatusCode.OK
        stats = cluster.statistics()
        assert stats["resilience_breakers_open"] == 0.0

    def test_per_replica_breaker_steers_reads_off_a_flaky_node(self):
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=4),
            breaker=BreakerPolicy(failure_threshold=2, cooldown=60.0),
            hedge=None,
        )
        _, cluster, facade = build_cluster(resilience=resilience, gray_seed=3)
        shard = shard_of(cluster, "posts", "p00")
        # Make one replica of the shard drop every response it serves.
        group = cluster.groups[shard]
        flaky_node = group.serving_node_ids()[-1]
        cluster.flaky_target(flaky_node, 1.0)
        for index in range(40):
            facade.handle_read("posts", f"p{index:02d}")
        merged = {}
        for shard_group in cluster.groups:
            for name, value in shard_group.counters.as_dict().items():
                merged[name] = merged.get(name, 0) + value
        assert merged.get("breaker_skipped_replicas", 0) > 0


class TestDeadlines:
    def test_tight_deadline_stops_retrying(self):
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=8, base_delay=0.4, max_delay=0.8),
            breaker=None,
            request_deadline=0.5,
            assumed_round_trip=0.2,
        )
        _, cluster, facade = build_cluster(resilience=resilience)
        cluster.flaky_target("shard:0", 1.0)
        for index in range(10):
            facade.handle_read("posts", f"p{index:02d}")
        counters = cluster.counters.as_dict()
        assert counters["deadline_exhausted"] > 0
        # The deadline caps attempts well below the configured 8.
        assert counters["read_retries"] < 10 * 7

    def test_scatter_query_propagates_the_deadline(self):
        resilience = ResilienceConfig(retry=RetryPolicy(max_attempts=3), breaker=None)
        _, cluster, facade = build_cluster(resilience=resilience)
        cluster.flaky_target("shard:0", 0.6)
        for _ in range(20):
            facade.handle_query(Query("posts", {"category": 1}))
        counters = cluster.counters.as_dict()
        assert counters.get("query_retries", 0) > 0


class TestWriteIdempotency:
    def test_pre_admission_drops_are_retried(self):
        resilience = ResilienceConfig(retry=RetryPolicy(max_attempts=6), breaker=None)
        _, cluster, facade = build_cluster(resilience=resilience)
        cluster.flaky_target("shard:0", 0.45)
        ok = 0
        for index in range(30):
            response = facade.handle_update("posts", f"p{index:02d}", {"views": 99})
            if response.status is not StatusCode.SERVICE_UNAVAILABLE:
                ok += 1
        counters = cluster.counters.as_dict()
        assert counters["write_retries"] > 0
        assert counters["write_retry_successes"] > 0
        assert ok >= 28

    def test_post_apply_ack_loss_is_never_retried(self):
        resilience = ResilienceConfig(retry=RetryPolicy(max_attempts=6), breaker=None)
        _, cluster, facade = build_cluster(resilience=resilience, gray_seed=5)
        shard = shard_of(cluster, "posts", "p00")
        primary = cluster.groups[shard].primary_node_id
        cluster.flaky_target(primary, 1.0)  # node-level: drops the *ack*
        response = facade.handle_update("posts", "p00", {"views": 123})
        assert response.status is StatusCode.SERVICE_UNAVAILABLE
        counters = cluster.counters.as_dict()
        assert counters["write_ack_drops"] == 1
        # The mutation was applied exactly once despite the lost ack.
        cluster.restore_target(primary)
        read = facade.handle_read("posts", "p00")
        assert read.body["document"]["views"] == 123
        # No retry happened after the ack loss (one write attempt total).
        assert "write_retries" not in counters


class TestNoFaultTransparency:
    def test_attached_resilience_changes_nothing_without_faults(self):
        _, plain_cluster, plain = build_cluster(resilience=None)
        _, resilient_cluster, resilient = build_cluster(resilience=ResilienceConfig())
        for index in range(40):
            key = f"p{index:02d}"
            assert (
                plain.handle_read("posts", key).body
                == resilient.handle_read("posts", key).body
            )
        plain_query = plain.handle_query(Query("posts", {"category": 2}))
        resilient_query = resilient.handle_query(Query("posts", {"category": 2}))
        assert plain_query.body["ids"] == resilient_query.body["ids"]
        # Not a single retry, fast-fail, drop or backoff happened.
        counters = resilient_cluster.counters.as_dict()
        for name in (
            "read_retries",
            "write_retries",
            "query_retries",
            "breaker_fast_fails",
            "gray_request_drops",
            "gray_response_drops",
            "deadline_exhausted",
        ):
            assert name not in counters
        assert resilient_cluster.resilience_runtime.take_trace().empty

    def test_disabled_config_builds_no_runtime(self):
        _, cluster, _ = build_cluster(resilience=ResilienceConfig.off())
        assert cluster.resilience_runtime is None
