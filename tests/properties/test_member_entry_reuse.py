"""Differential: member entries kept across result versions change nothing.

When a query's result changes, the SDK keeps the prepared ``CacheEntry`` of
every member whose version did not change and builds only the changed ones
(``QuaestorClient._cache_result_records``).  ``RebuildingClient`` below is
the SDK as it stood before -- frozen here as the reference: a new result
version rebuilds, and observes into the session, every member.  Two
identical deployments, one per client class, run the same generated
sequence of overlapping query serves, direct reads, own and foreign writes
and clock advances; after every step the two client caches must hold equal
entries (field by field) with equal statistics, and the two sessions equal
seen versions and documents.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import repro.client.sdk as sdk_module
from repro.caching import CacheEntry, InvalidationCache
from repro.client import QuaestorClient
from repro.clock import VirtualClock
from repro.core import QuaestorServer
from repro.db import Database, Query
from repro.db.query import record_key
from repro.errors import QuaestorError
from repro.rest.etags import etag_for_version

DOCUMENTS = 9
#: Overlapping object-list results; the last two hold the same members in
#: opposite orders (one result etag, two served orders).
QUERIES = (
    Query("posts", {"group": 0}),
    Query("posts", {"group": 1}),
    Query("posts", {"views": {"$lt": 5}}),
    Query("posts", {"views": {"$gte": 3}}, sort=[("views", 1)]),
    Query("posts", {"views": {"$gte": 3}}, sort=[("views", -1)]),
)


class RebuildingClient(QuaestorClient):
    """The reference: every new result version rebuilds all of its members."""

    def _cache_result_records(self, collection, body, query_key, result_etag, now):
        record_ttl = body.get("record_ttl", 0.0) or 0.0
        if not self.use_client_cache or record_ttl <= 0:
            return
        documents = body.get("documents")
        if not documents:
            return
        ids = body.get("ids")
        memo = self._prepared_records
        prepared = memo.get(query_key)
        if prepared is not None and prepared[0] == result_etag and prepared[1] == ids:
            memo.move_to_end(query_key)
            entries = prepared[2]
        else:
            versions_get = body.get("record_versions", {}).get
            entries = []
            for document in documents:
                document_id = str(document.get("_id", ""))
                key = record_key(collection, document_id)
                version = versions_get(document_id, 0)
                entries.append(
                    CacheEntry(
                        key,
                        {"document": document, "version": version},
                        etag_for_version(collection, document_id, version),
                        0.0,
                        record_ttl,
                    )
                )
                self.session.observe_read(key, version, document)
            if result_etag is not None and ids is not None:
                memo[query_key] = (result_etag, ids, entries)
                memo.move_to_end(query_key)
                if len(memo) > sdk_module._PREPARED_QUERIES:
                    memo.popitem(last=False)
        self.client_cache.restamp(entries, record_ttl, now)


class Deployment:
    def __init__(self, client_class):
        self.clock = VirtualClock()
        database = Database(clock=self.clock)
        posts = database.create_collection("posts")
        for number in range(DOCUMENTS):
            posts.insert({"_id": f"d{number}", "group": number % 2, "views": number})
        self.server = QuaestorServer(database)
        cdn = InvalidationCache("cdn", self.clock)
        self.server.register_purge_target(cdn)
        self.client = client_class(self.server, cdn=cdn, clock=self.clock, refresh_interval=1.0)
        self.client.connect()

    def run(self, kind, index, amount):
        document_id = f"d{index % DOCUMENTS}"
        try:
            if kind == "query":
                self.client.query(QUERIES[index % len(QUERIES)])
            elif kind == "read":
                self.client.read("posts", document_id)
            elif kind == "update":
                self.client.update("posts", document_id, {"$inc": {"views": 1}})
            elif kind == "delete":
                self.client.delete("posts", document_id)
            elif kind == "insert":
                self.client.insert("posts", {"_id": document_id, "group": index % 2, "views": index})
            elif kind == "foreign-update":
                self.server.handle_update("posts", document_id, {"$set": {"group": index % 2}})
            else:
                self.clock.advance(amount)
        except QuaestorError:
            pass  # a write to a deleted document, an insert over a live one

    def observable(self):
        cache, session = self.client.client_cache, self.client.session
        return {
            "entries": {
                key: (entry.body, entry.etag, entry.stored_at, entry.ttl)
                for key, entry in cache._entries.items()
            },
            "stats": cache.stats.as_dict(),
            "seen_versions": session._seen_versions,
            "seen_documents": session._seen_documents,
            "prepared": [
                (query_key, etag, ids, [entry.key for entry in entries])
                for query_key, (etag, ids, entries, *_) in self.client._prepared_records.items()
            ],
        }


STEPS = st.tuples(
    st.sampled_from(
        ("query", "query", "query", "query", "read", "update", "update", "delete", "insert",
         "foreign-update", "foreign-update", "advance", "advance")
    ),
    st.integers(min_value=0, max_value=44),
    #: Clock advances: well short of any TTL (>= 1 s), around it, far past it.
    st.sampled_from((0.05, 0.4, 1.1, 4.0, 30.0, 2000.0)),
)


@given(st.lists(STEPS, max_size=40))
@settings(deadline=None)
def test_kept_member_entries_equal_a_full_rebuild(steps):
    subject = Deployment(QuaestorClient)
    reference = Deployment(RebuildingClient)
    for step in steps:
        subject.run(*step)
        reference.run(*step)
        assert subject.observable() == reference.observable()


def test_only_the_changed_member_is_rebuilt():
    """A one-member change keeps every other member's entry *object*, and
    the re-served result stores exactly what a full rebuild would."""
    subject = Deployment(QuaestorClient)
    reference = Deployment(RebuildingClient)
    query = QUERIES[0]  # d0 d2 d4 d6 d8
    for deployment in (subject, reference):
        deployment.client.query(query)
    before = dict(zip(*subject.client._prepared_records[query.cache_key][1:3]))
    reference_before = dict(zip(*reference.client._prepared_records[query.cache_key][1:3]))
    for deployment in (subject, reference):
        deployment.server.handle_update("posts", "d4", {"$inc": {"views": 1}})
        deployment.clock.advance(1.5)  # past the refresh interval: the EBF flags the query
        assert deployment.client.query(query).level != "client"
    after = dict(zip(*subject.client._prepared_records[query.cache_key][1:3]))
    assert list(after) == list(before)
    assert [after[member] is before[member] for member in after] == [True, True, False, True, True]
    assert after["d4"].body["version"] == 2
    rebuilt = dict(zip(*reference.client._prepared_records[query.cache_key][1:3]))
    assert not any(rebuilt[member] is entry for member, entry in reference_before.items())
    assert subject.observable() == reference.observable()


def test_the_memo_stays_bounded_past_its_limit_and_still_equals_the_reference():
    subject = Deployment(QuaestorClient)
    reference = Deployment(RebuildingClient)
    hot = QUERIES[1]
    for bound in range(sdk_module._PREPARED_QUERIES + 60):
        for deployment in (subject, reference):
            deployment.client.query(Query("posts", {"views": {"$lt": 100 + bound}}))
            if bound % 50 == 0:
                deployment.server.handle_update("posts", "d3", {"$inc": {"views": 1}})
                deployment.clock.advance(1.5)
                deployment.client.query(hot)
    assert len(subject.client._prepared_records) == sdk_module._PREPARED_QUERIES
    assert hot.cache_key in subject.client._prepared_records
    assert subject.observable() == reference.observable()
