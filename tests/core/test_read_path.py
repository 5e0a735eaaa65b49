"""Read-path tests: golden equivalence, one commit step, prepared-read protocol.

``golden_read_path.json`` was captured by running the deterministic scenario
below against the hand-inlined ``handle_query`` / ``handle_read``
bookkeeping sequences of an early server.  The equivalence test replays the
scenario through today's server and asserts the serialized responses are
byte-identical, so every refactor of the read path since is checked to be
behaviour-preserving on the single-server path.  ``TestOneCommitStep`` checks
that the single-server query and a shard's commit leave the same caching
state behind.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.clock import VirtualClock
from repro.core import QuaestorConfig, QuaestorServer, ResultRepresentation
from repro.db import Database, Query
from repro.invalidb import InvaliDBCluster
from repro.ttl import TTLEstimatorSpec

GOLDEN_PATH = Path(__file__).parent / "golden_read_path.json"


def build_server(clock=None, config=None):
    clock = clock if clock is not None else VirtualClock()
    database = Database(clock=clock)
    server = QuaestorServer(
        database, config=config, invalidb=InvaliDBCluster(matching_nodes=2)
    )
    return server, clock


def serialize(response):
    return {
        "status": int(response.status),
        "etag": response.etag,
        "max_age": response.cache_control.max_age,
        "s_maxage": response.cache_control.s_maxage,
        "no_store": response.cache_control.no_store,
        "body": response.body,
    }


class TestGoldenEquivalence:
    def test_single_server_responses_are_byte_identical_to_pre_pipeline(self):
        # The golden file was captured under the default estimator spec.
        server, clock = build_server(config=QuaestorConfig(ttl_estimator=TTLEstimatorSpec()))
        for index in range(40):
            server.handle_insert(
                "posts",
                {
                    "_id": f"doc-{index:03d}",
                    "category": index % 5,
                    "views": (index * 37) % 101,
                },
            )
            clock.advance(0.25)

        responses = []
        for query in [
            Query("posts", {"category": 2}),
            Query("posts", {"views": {"$gt": 50}}, sort=(("views", -1), ("_id", 1)), limit=5),
            Query("posts", {}, limit=3, offset=2),
            Query("posts", {"category": 99}),
        ]:
            clock.advance(1.0)
            responses.append(serialize(server.handle_query(query)))
        clock.advance(1.0)
        responses.append(serialize(server.handle_read("posts", "doc-007")))

        golden = json.loads(GOLDEN_PATH.read_text())
        assert json.dumps(responses, sort_keys=True) == json.dumps(golden, sort_keys=True)


class TestOneCommitStep:
    def test_query_and_shard_commit_leave_the_same_caching_state(self):
        """The single-server query and a shard's commit share one commit step:
        on twin servers they leave the same InvaliDB registration, admitted
        set, active-list entry and EBF-tracked keys (the query key and, in
        an object-list, every member record)."""
        query = Query("posts", {"category": 0})
        twins = []
        for _ in range(2):
            server, clock = build_server()
            for index in range(6):
                server.handle_insert("posts", {"_id": f"p{index}", "category": index % 2})
            clock.advance(1.0)
            twins.append(server)
        direct, sharded = twins
        assert direct.handle_query(query).is_cacheable
        assert sharded.prepare_shard_query(query).commit() is not None

        key = query.cache_key
        for server in twins:
            assert server.invalidb.is_registered(key)
        assert direct.invalidb._registered == sharded.invalidb._registered
        assert set(direct.capacity._admitted) == set(sharded.capacity._admitted) == {key}
        entry = direct.active_list.get(key)
        assert entry.representation is ResultRepresentation.OBJECT_LIST
        assert entry == sharded.active_list.get(key)
        assert len(direct.ebf._cacheable_until) == 4  # the query key + 3 members
        assert direct.ebf._cacheable_until == sharded.ebf._cacheable_until


class TestPreparedShardRead:
    def test_abort_leaves_no_bookkeeping(self):
        server, _ = build_server()
        for index in range(6):
            server.handle_insert("posts", {"_id": f"p{index}", "category": 0})
        query = Query("posts", {"category": 0})

        prepared = server.prepare_shard_query(query)
        assert prepared.admitted
        prepared.abort()

        assert prepared.body["documents"]
        assert not server.invalidb.is_registered(query.cache_key)
        assert query.cache_key not in server.capacity._admitted
        assert server.active_list.get(query.cache_key) is None
        assert server.counters.get("shard_queries_aborted") == 1

    def test_prepared_read_is_single_use(self):
        server, _ = build_server()
        server.handle_insert("posts", {"_id": "p0", "category": 0})
        prepared = server.prepare_shard_query(Query("posts", {"category": 0}))
        prepared.commit()
        with pytest.raises(RuntimeError):
            prepared.commit()
        with pytest.raises(RuntimeError):
            prepared.abort()

    def test_rejected_prepared_read_cannot_commit(self):
        server, _ = build_server(config=QuaestorConfig(max_active_queries=1))
        server.handle_insert("posts", {"_id": "p0", "category": 0})
        # Saturate the single slot with a high-scoring query.
        server.capacity.commit(server.capacity.probe("hot"))
        for _ in range(50):
            server.capacity.record_read("hot", result_size=0)

        prepared = server.prepare_shard_query(Query("posts", {"category": 0}))
        assert not prepared.admitted
        with pytest.raises(ValueError):
            prepared.commit()
        # The failed commit leaves the read unresolved: it is still abortable.
        prepared.abort()
        assert prepared.body["documents"]

    def test_stale_ticket_commit_degrades_to_uncacheable(self):
        """An interleaved admission between probe and commit must not overfill."""
        server, _ = build_server(config=QuaestorConfig(max_active_queries=1))
        for index in range(4):
            server.handle_insert("posts", {"_id": f"p{index}", "category": index % 2})
        scatter = Query("posts", {"category": 0})
        prepared = server.prepare_shard_query(scatter)
        assert prepared.admitted

        # A single-server query takes the last slot while the ticket is open.
        interleaved = Query("posts", {"category": 1})
        assert server.handle_query(interleaved).is_cacheable

        assert prepared.commit() is None
        assert prepared.body["documents"]
        assert sorted(server.capacity._admitted) == [interleaved.cache_key]
        assert not server.invalidb.is_registered(scatter.cache_key)
        assert server.active_list.get(scatter.cache_key) is None

    def test_caching_disabled_prepared_read_aborts_cleanly(self):
        server, _ = build_server(config=QuaestorConfig(caching=False))
        server.handle_insert("posts", {"_id": "p0", "category": 0})
        prepared = server.prepare_shard_query(Query("posts", {"category": 0}))
        assert not prepared.admitted
        prepared.abort()
        assert prepared.body["documents"]
        # No probe happened, so nothing is counted as an abort.
        assert server.capacity.aborts == 0
        assert server.counters.get("shard_queries_aborted") == 0


class TestAdmissionStatistics:
    def test_statistics_expose_admission_outcome(self):
        server, _ = build_server()
        server.handle_insert("posts", {"_id": "p0", "category": 0})
        server.handle_query(Query("posts", {"category": 0}))
        prepared = server.prepare_shard_query(Query("posts", {"category": 1}))
        prepared.abort()

        snapshot = server.statistics()
        assert snapshot["admission_probes"] == 2
        assert snapshot["admission_commits"] == 1
        assert snapshot["admission_aborts"] == 1
        assert snapshot["admission_rejections"] == 0

    def test_a_snapshot_sweeps_the_ebf_once(self, monkeypatch):
        server, _ = build_server()
        sweeps = []
        expire = server.ebf.expire
        monkeypatch.setattr(server.ebf, "expire", lambda *args: sweeps.append(args) or expire(*args))
        server.statistics()
        assert len(sweeps) == 1
