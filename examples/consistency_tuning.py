#!/usr/bin/env python3
"""Tuning the latency/staleness trade-off: Delta, consistency levels, sessions.

Quaestor's central knob is the Expiring Bloom Filter refresh interval Delta:
it bounds how stale any read can be (Delta-atomicity) while directly
controlling how many requests can be served from caches.  This example
measures the trade-off end to end and demonstrates the session guarantees:

1. sweep Delta and report cache hit rate vs measured staleness,
2. show monotonic reads protecting a session from version regressions,
3. show causal and strong consistency opt-ins paying extra revalidations.

Run with:  python examples/consistency_tuning.py
"""

from __future__ import annotations

from repro.caching import InvalidationCache
from repro.clock import VirtualClock
from repro.client import QuaestorClient
from repro.core import ConsistencyLevel, QuaestorConfig, QuaestorServer
from repro.db import Database, Query
from repro.invalidb import InvaliDBCluster
from repro.simulation import CachingMode, SimulationConfig, Simulator
from repro.workloads import DatasetSpec, WorkloadSpec


def sweep_delta() -> None:
    print("sweeping the EBF refresh interval (Delta) ...")
    print(f"{'Delta (s)':>10} | {'query hit rate':>14} | {'stale queries':>13} | {'max staleness (s)':>17}")
    print("-" * 65)
    for delta in (0.5, 2.0, 10.0, 30.0):
        config = SimulationConfig(
            mode=CachingMode.QUAESTOR,
            workload=WorkloadSpec.with_update_rate(0.05),
            dataset=DatasetSpec(num_tables=2, documents_per_table=800, queries_per_table=40),
            num_clients=10,
            connections_per_client=6,
            ebf_refresh_interval=delta,
            duration=max(60.0, 4 * delta),
            max_operations=5_000,
            seed=5,
        )
        result = Simulator(config).run()
        print(
            f"{delta:>10.1f} | {result.client_query_hit_rate:>14.2%} | "
            f"{result.query_stale_rate:>13.2%} | {result.aggregate.max_staleness:>17.2f}"
        )
    print("staleness never exceeds Delta by more than the invalidation delay -- Theorem 1.\n")


def session_guarantees() -> None:
    print("demonstrating session guarantees ...")
    clock = VirtualClock()
    database = Database(clock=clock)
    accounts = database.create_collection("accounts")
    accounts.insert({"_id": "alice", "balance": 100})

    server = QuaestorServer(database, config=QuaestorConfig(), invalidb=InvaliDBCluster())
    cdn = InvalidationCache("cdn", clock)
    server.register_purge_target(cdn)

    alice = QuaestorClient(server, cdn=cdn, clock=clock, refresh_interval=30.0, name="alice")
    alice.connect()

    # Read-your-writes: immediately after a write, the session sees it.
    alice.read("accounts", "alice")
    alice.update("accounts", "alice", {"$inc": {"balance": 50}})
    own = alice.read("accounts", "alice")
    print(f"   read-your-writes: balance={own.value['balance']} (served by {own.level})")

    # Monotonic reads: even if a cache later returns an older copy, the session
    # never observes a version regression.
    older = alice.read("accounts", "alice")
    print(
        f"   monotonic reads:  version={older.version} "
        f"(never below the highest seen version)"
    )

    # Opt-in strong consistency: pays a full round trip but is linearizable.
    strong = alice.read("accounts", "alice", consistency=ConsistencyLevel.STRONG)
    print(f"   strong read:      balance={strong.value['balance']} (served by {strong.level})")

    revalidations = alice.counters.get("revalidations")
    print(f"   revalidations issued by this session: {revalidations}\n")


def causal_opt_in() -> None:
    print("causal consistency opt-in ...")
    clock = VirtualClock()
    database = Database(clock=clock)
    wall = database.create_collection("wall")
    wall.insert({"_id": "m1", "text": "first post", "replies": 0})

    server = QuaestorServer(database, config=QuaestorConfig(), invalidb=InvaliDBCluster())
    cdn = InvalidationCache("cdn", clock)
    server.register_purge_target(cdn)

    causal_client = QuaestorClient(
        server,
        cdn=cdn,
        clock=clock,
        refresh_interval=60.0,
        consistency=ConsistencyLevel.CAUSAL,
        name="causal",
    )
    causal_client.connect()

    first = causal_client.read("wall", "m1")
    other = QuaestorClient(server, cdn=cdn, clock=clock, refresh_interval=60.0, name="other")
    other.connect()
    other.update("wall", "m1", {"$inc": {"replies": 1}})

    clock.advance(1.0)
    second = causal_client.read("wall", "m1")
    print(
        f"   after observing data newer than its EBF, the causal session revalidates: "
        f"served by {second.level}, replies={second.value['replies']}"
    )
    print(f"   revalidations: {causal_client.counters.get('revalidations')}\n")


def main() -> None:
    sweep_delta()
    session_guarantees()
    causal_opt_in()


if __name__ == "__main__":
    main()
