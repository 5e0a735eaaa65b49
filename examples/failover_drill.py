#!/usr/bin/env python3
"""A failover drill: the blog platform loses its primary at t=30s.

The blog-platform workload (readers loading feeds and posts, authors
publishing edits) runs against a replicated single-shard deployment
(replication factor 3).  A scripted fault plan crashes the primary at
t=30s; failure detection takes two seconds, after which the freshest
replica is promoted, and the crashed node rejoins as a replica at t=45s.

The drill prints what a DBaaS operator would watch on a dashboard: per
phase (healthy / outage / failed-over / recovered) the availability of
reads, queries and writes, where reads were served, and the fraction of
reads the staleness auditor flags -- showing that reads stay available
*fail-stale* through the outage while writes briefly error, and that
everything returns to normal after the promotion.

Run with:  python examples/failover_drill.py
"""

from __future__ import annotations

from collections import defaultdict

from repro.clock import VirtualClock
from repro.cluster import ClusterClient, QuaestorCluster
from repro.client import QuaestorClient
from repro.db import Query
from repro.faults import FaultInjector, FaultPlan
from repro.replication import ReplicationConfig
from repro.simulation import EventQueue
from repro.simulation.latency import LatencyModel

CRASH_AT = 30.0
DETECTION_DELAY = 2.0
RECOVER_AT = 45.0
DRILL_END = 60.0
STEP = 0.5


def phase_of(now: float) -> str:
    if now < CRASH_AT:
        return "healthy"
    if now < CRASH_AT + DETECTION_DELAY:
        return "outage"
    if now < RECOVER_AT:
        return "failed-over"
    return "recovered"


def build_platform():
    clock = VirtualClock()
    cluster = QuaestorCluster(
        num_shards=1,
        clock=clock,
        matching_nodes=2,
        replication=ReplicationConfig(
            replication_factor=3,
            lag=LatencyModel(mean=0.05, jitter=0.01, minimum=0.001),
            failover_detection_delay=DETECTION_DELAY,
        ),
    )
    cluster.replication.reseed(97)
    facade = ClusterClient(cluster)
    for index in range(60):
        facade.handle_insert(
            "posts",
            {
                "_id": f"post-{index:03d}",
                "title": f"Blog post {index}",
                "category": "tech" if index % 3 == 0 else "life",
                "likes": index % 17,
            },
        )
    return clock, cluster, facade


def main() -> None:
    clock, cluster, facade = build_platform()
    reader = QuaestorClient(facade, clock=clock, refresh_interval=5.0, name="reader")
    author = QuaestorClient(facade, clock=clock, refresh_interval=5.0, name="author")
    reader.connect()
    author.connect()

    events = EventQueue()
    plan = FaultPlan.primary_crash(shard=0, at=CRASH_AT, recover_at=RECOVER_AT)
    injector = FaultInjector(cluster, events, clock, plan, detection_delay=DETECTION_DELAY)
    injector.arm()

    front_page = Query("posts", {"category": "tech"}, sort=[("likes", -1)], limit=5)
    stats = defaultdict(lambda: defaultdict(int))

    step = 0
    now = 0.0
    while now < DRILL_END:
        now = round(now + STEP, 6)
        events.run_until(clock, now)
        phase = phase_of(now)
        bucket = stats[phase]
        step += 1

        # A reader loads the front page and one post.
        query_result = reader.query(front_page)
        bucket["queries"] += 1
        if query_result.level == "error":
            bucket["query_errors"] += 1

        # Readers follow what authors touch: reading the recently edited
        # posts is what exposes replication lag to the staleness audit.
        post_id = f"post-{(step * 11) % 60:03d}"
        read_result = reader.read("posts", post_id)
        bucket["reads"] += 1
        bucket[f"read_via_{read_result.level}"] += 1
        if read_result.level == "error":
            bucket["read_errors"] += 1
        elif read_result.etag is not None:
            staleness = cluster.auditor.audit_read(read_result.key, read_result.etag, now)
            bucket["reads_audited"] += 1
            if staleness is not None:
                bucket["stale_reads"] += 1

        # Every second, an author edits a post.
        if step % 2 == 0:
            edit_id = f"post-{(step * 11) % 60:03d}"
            write_result = author.update("posts", edit_id, {"$inc": {"likes": 1}})
            bucket["writes"] += 1
            if write_result.level == "error":
                bucket["write_errors"] += 1

    print("fault timeline:")
    for entry in injector.timeline:
        extra = ""
        if "time_to_recover" in entry:
            extra = f"  (time to recover: {entry['time_to_recover']:.2f}s)"
        print(f"  t={entry['time']:5.1f}s  {entry['action']:<9} {entry['node']}{extra}")

    print("\nphase            reads ok   queries ok  writes ok   stale reads  served by")
    for phase in ("healthy", "outage", "failed-over", "recovered"):
        bucket = stats[phase]
        if not bucket["reads"]:
            continue

        def availability(total_key: str, error_key: str) -> str:
            total = bucket[total_key]
            if not total:
                return "    -"
            ok = total - bucket[error_key]
            return f"{100.0 * ok / total:5.1f}%"

        audited = bucket["reads_audited"]
        stale = f"{100.0 * bucket['stale_reads'] / audited:5.1f}%" if audited else "    -"
        served = ", ".join(
            f"{key.removeprefix('read_via_')}={count}"
            for key, count in sorted(bucket.items())
            if key.startswith("read_via_")
        )
        print(
            f"{phase:<15} {availability('reads', 'read_errors'):>9} "
            f"{availability('queries', 'query_errors'):>12} "
            f"{availability('writes', 'write_errors'):>10} {stale:>12}  {served}"
        )

    group = cluster.groups[0]
    print(f"\nreplica group after the drill: {group.status()}")
    print(
        "replication counters:",
        {key: value for key, value in group.counters.as_dict().items()},
    )
    print("drill complete: reads stayed available fail-stale through the outage,")
    print("writes resumed after promotion, and the old primary rejoined as a replica.")


if __name__ == "__main__":
    main()
