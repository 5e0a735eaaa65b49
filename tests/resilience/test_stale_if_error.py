"""SDK degraded serving: stale-if-error semantics and freshness accounting."""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.client import QuaestorClient
from repro.client.sdk import DEGRADED_LEVEL
from repro.cluster import ClusterClient, QuaestorCluster
from repro.faults import FaultPlan
from repro.replication import ReplicationConfig
from repro.resilience import ResilienceConfig, StaleIfErrorPolicy
from repro.simulation import SimulationConfig, Simulator
from repro.simulation.latency import LatencyModel
from repro.simulation.staleness import StalenessAuditor
from repro.workloads import DatasetSpec, WorkloadSpec

#: A single unreplicated shard whose primary crashes two seconds in: every
#: read of an expired entry after that is served stale-if-error.
DEGRADED_RUN = SimulationConfig(
    num_shards=1,
    num_clients=2,
    connections_per_client=4,
    dataset=DatasetSpec(num_tables=1, documents_per_table=50, queries_per_table=5),
    workload=WorkloadSpec.with_update_rate(0.1),
    duration=60.0,
    max_operations=600,
    ebf_refresh_interval=0.5,
    matching_nodes=1,
    seed=3,
    resilience=ResilienceConfig(),
    fault_plan=FaultPlan.primary_crash(shard=0, at=2.0, recover_at=32.0),
)


def build(resilience=ResilienceConfig(), replication_factor=1):
    clock = VirtualClock()
    cluster = QuaestorCluster(
        num_shards=1,
        clock=clock,
        matching_nodes=2,
        replication=ReplicationConfig(
            replication_factor=replication_factor,
            lag=LatencyModel(mean=0.01, jitter=0.0),
        ),
        resilience=resilience,
    )
    facade = ClusterClient(cluster)
    client = QuaestorClient(facade, clock=clock, refresh_interval=0.5, resilience=resilience)
    client.connect()
    facade.handle_insert("posts", {"_id": "p1", "views": 1})
    return clock, cluster, facade, client


def expire_entry(clock, client, key, past_expiry):
    """Advance the clock to ``past_expiry`` seconds beyond the entry's TTL."""
    entry = client.client_cache.peek(key)
    assert entry is not None
    clock.advance(entry.fresh_until - clock.now() + past_expiry)
    return entry


class TestStaleIfErrorServing:
    def test_serves_expired_entry_during_outage_with_degraded_marker(self):
        clock, cluster, facade, client = build()
        assert client.read("posts", "p1").level == "origin"
        expire_entry(clock, client, "record:posts/p1", past_expiry=2.0)
        cluster.crash_node(cluster.groups[0].primary_node_id)

        result = client.read("posts", "p1")
        assert result.level == DEGRADED_LEVEL
        assert result.degraded is True
        assert result.value == {"_id": "p1", "views": 1}
        assert client.counters.get("stale_if_error_serves") == 1

    def test_rejects_entries_past_the_staleness_budget(self):
        resilience = ResilienceConfig(stale_if_error=StaleIfErrorPolicy(max_staleness=3.0))
        clock, cluster, facade, client = build(resilience)
        client.read("posts", "p1")
        expire_entry(clock, client, "record:posts/p1", past_expiry=3.5)
        cluster.crash_node(cluster.groups[0].primary_node_id)

        result = client.read("posts", "p1")
        assert result.level != DEGRADED_LEVEL
        assert client.counters.get("stale_if_error_rejects") == 1
        assert client.counters.get("stale_if_error_serves") == 0

    def test_no_policy_means_plain_unavailable(self):
        resilience = ResilienceConfig(stale_if_error=None)
        clock, cluster, facade, client = build(resilience)
        client.read("posts", "p1")
        expire_entry(clock, client, "record:posts/p1", past_expiry=1.0)
        cluster.crash_node(cluster.groups[0].primary_node_id)
        result = client.read("posts", "p1")
        assert result.level != DEGRADED_LEVEL
        assert client.counters.get("stale_if_error_serves") == 0

    def test_uncached_key_cannot_be_served_degraded(self):
        clock, cluster, facade, client = build()
        facade.handle_insert("posts", {"_id": "p2", "views": 2})
        clock.advance(0.1)
        cluster.crash_node(cluster.groups[0].primary_node_id)
        result = client.read("posts", "p2")  # never cached client-side
        assert result.level != DEGRADED_LEVEL


class TestFreshnessAccounting:
    def test_degraded_serve_is_not_a_cache_hit(self):
        clock, cluster, facade, client = build()
        client.read("posts", "p1")
        expire_entry(clock, client, "record:posts/p1", past_expiry=1.0)
        cluster.crash_node(cluster.groups[0].primary_node_id)
        hits_before = client.client_cache.stats.hits
        result = client.read("posts", "p1")
        assert result.level == DEGRADED_LEVEL
        assert client.client_cache.stats.hits == hits_before

    def test_degraded_serve_does_not_whitelist_or_touch_session_state(self):
        clock, cluster, facade, client = build()
        client.read("posts", "p1")
        expire_entry(clock, client, "record:posts/p1", past_expiry=1.0)
        cluster.crash_node(cluster.groups[0].primary_node_id)
        key = "record:posts/p1"
        session_before = dict(client.session._seen_versions)
        result = client.read("posts", "p1")
        assert result.level == DEGRADED_LEVEL
        # A degraded serve must not mark the key fresh: the value is *known*
        # stale, so whitelisting it would let the next read skip the
        # revalidation the EBF demanded.
        assert key not in client.whitelist
        assert dict(client.session._seen_versions) == session_before

    def test_auditor_scores_a_degraded_serve_like_any_read(self):
        auditor = StalenessAuditor()
        auditor.record_version("record:posts/p1", "v1", 0.0)
        # Never superseded: an availability concession, not a violation.
        assert auditor.audit_read("record:posts/p1", "v1", 1.0) is None
        auditor.record_version("record:posts/p1", "v2", 2.0)
        assert auditor.audit_read("record:posts/p1", "v1", 3.0) == pytest.approx(1.0)

    def test_simulator_counts_degraded_serves_apart_from_stale_reads(self):
        simulator = Simulator(DEGRADED_RUN)
        summary = simulator.run().summary()
        counts = simulator.stale_counts()
        degraded = sum(
            simulator.level_counts[op_class].get(DEGRADED_LEVEL) for op_class in ("read", "query")
        )
        assert counts["degraded_served"] == degraded > 0
        assert summary["degraded_served"] == degraded
