"""Property: the batch member restamp is N single-member stores, observably.

Every serve of an object-list result re-stores its member records in the
client cache.  The SDK builds the member entries once per result version and
restamps them in one batch (``WebCache.restamp``); this test runs random
interleavings of overlapping query serves, direct reads, own writes, another
client's traffic through the shared CDN and clock advances past and short of
expiry, and after every step compares the client cache with a reference that
does it the long way: a *new* entry stored per member, and the member
observed into a session, on every serve.  Same keys, same body object, etag
and expiry per key, same cache statistics, same seen versions.

It also pins the ownership rule that makes restamping in place safe: an
entry object lives in exactly one cache (a client restamps only what it
alone holds), and nothing reachable from the shared CDN -- no entry's
stamps, no body -- ever changes after it was stored.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.caching import CacheEntry, ExpirationCache, InvalidationCache
from repro.client import QuaestorClient
from repro.client.session import ClientSession
from repro.clock import VirtualClock
from repro.core import QuaestorServer
from repro.db import Database, Query
from repro.errors import QuaestorError

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


class ReferenceSession(ClientSession):
    """The client's session, mirroring every observation into ``shadow``."""

    def __init__(self) -> None:
        super().__init__()
        self.shadow = ClientSession()

    def observe_read(self, key, version, document) -> bool:
        self.shadow.observe_read(key, version, document)
        return super().observe_read(key, version, document)


class ReferenceCache(ExpirationCache):
    """The client cache, mirroring every operation the SDK path performs into
    ``shadow`` -- where a batch restamp is N single-member stores of new
    entries, each observed into the shadow session, as every serve used to do.
    """

    shadow: ExpirationCache
    shadow_session: ClientSession

    def lookup(self, key, now):
        expected = self.shadow.lookup(key, self._clock.now())  # its own instant
        entry = super().lookup(key, now)
        assert (entry is None) == (expected is None)
        return entry

    def store(self, key, response):
        self.shadow.store(key, response)
        return super().store(key, response)

    def store_entry(self, entry):
        self.shadow.store_entry(entry.refreshed(entry.stored_at, entry.ttl))
        super().store_entry(entry)

    def remove(self, key):
        self.shadow.remove(key)
        return super().remove(key)

    def restamp(self, entries, ttl, now):
        if ttl > 0:
            stored_at = self._clock.now()  # the reference reads the clock itself
            for entry in entries:
                self.shadow.store_entry(CacheEntry(entry.key, entry.body, entry.etag, stored_at, ttl))
                self.shadow_session.observe_read(
                    entry.key, entry.body["version"], entry.body["document"]
                )
        super().restamp(entries, ttl, now)


def describe(cache):
    """Everything observable about a cache: per key, what it serves."""
    return {
        key: (
            id(entry.body["document"]) if "document" in entry.body else id(entry.body),
            entry.etag,
            entry.fresh_until,
        )
        for key, entry in cache._entries.items()
    }


class Deployment:
    def __init__(self):
        self.clock = VirtualClock()
        database = Database(clock=self.clock)
        posts = database.create_collection("posts")
        for number in range(DOCUMENTS):
            posts.insert({"_id": f"d{number}", "group": number % 2, "views": number})
        server = QuaestorServer(database)
        self.cdn = InvalidationCache("cdn", self.clock)
        server.register_purge_target(self.cdn)
        self.client = QuaestorClient(
            server, cdn=self.cdn, clock=self.clock, refresh_interval=1.0, name="restamping"
        )
        self.other = QuaestorClient(
            server, cdn=self.cdn, clock=self.clock, refresh_interval=1.0, name="other"
        )
        # Swap in the mirroring twins before the first request.
        cache = self.client.client_cache
        cache.__class__ = ReferenceCache
        cache.shadow = ExpirationCache("reference", self.clock)
        self.client.session = ReferenceSession()
        cache.shadow_session = self.client.session.shadow
        self.client.connect()
        self.other.connect()
        #: Every entry ever seen in the CDN, with the stamps and body it had
        #: then: id -> (entry, stored_at, ttl, body, body content).
        self.shared = {}

    def run(self, step):
        try:
            self._run(*step)
        except QuaestorError:
            pass  # a write to a deleted document, an insert over a live one

    def _run(self, kind, index, amount):
        document_id = f"d{index % DOCUMENTS}"
        query = QUERIES[index % len(QUERIES)]
        if kind == "query":
            self.client.query(query)
        elif kind == "read":
            self.client.read("posts", document_id)
        elif kind == "update":
            self.client.update("posts", document_id, {"$inc": {"views": 1}})
        elif kind == "delete":
            self.client.delete("posts", document_id)
        elif kind == "insert":
            self.client.insert("posts", {"_id": document_id, "group": index % 2, "views": index})
        elif kind == "other-query":
            self.other.query(query)
        elif kind == "other-read":
            self.other.read("posts", document_id)
        elif kind == "other-update":
            self.other.update("posts", document_id, {"$set": {"group": index % 2}})
        else:
            self.clock.advance(amount)

    def check(self):
        cache = self.client.client_cache
        assert describe(cache) == describe(cache.shadow)
        assert cache.stats.as_dict() == cache.shadow.stats.as_dict()
        session = self.client.session
        assert session._seen_versions == session.shadow._seen_versions
        assert list(session._seen_documents) == list(session.shadow._seen_documents)
        for key, document in session._seen_documents.items():
            assert document is session.shadow._seen_documents[key]

        # Ownership: an entry object lives in exactly one cache ...
        caches = (cache, self.cdn, self.other.client_cache)
        owned = [id(entry) for each in caches for entry in each._entries.values()]
        assert len(owned) == len(set(owned))
        # ... and nothing reachable from the shared cache ever changes.
        for entry in self.cdn._entries.values():
            self.shared.setdefault(
                id(entry), (entry, entry.stored_at, entry.ttl, entry.body, dict(entry.body))
            )
        for entry, stored_at, ttl, body, content in self.shared.values():
            assert (entry.stored_at, entry.ttl) == (stored_at, ttl)
            assert entry.body is body and body == content


STEPS = st.tuples(
    st.sampled_from(
        ("query", "query", "query", "read", "read", "update", "delete", "insert",
         "other-query", "other-read", "other-update", "advance", "advance")
    ),
    st.integers(min_value=0, max_value=44),
    #: Clock advances: well short of any TTL (>= 1 s), around it, and past
    #: the CDN's longer one.
    st.sampled_from((0.05, 0.4, 1.1, 4.0, 30.0, 2000.0)),
)


@given(st.lists(STEPS, max_size=40))
@settings(deadline=None)
def test_batch_restamp_equals_single_member_stores(steps):
    deployment = Deployment()
    for step in steps:
        deployment.run(step)
        deployment.check()
