"""The Quaestor client SDK.

The SDK is the piece that makes web caching safe for dynamic data: it holds a
flat copy of the Expiring Bloom Filter, checks it before every read or query,
and transparently promotes potentially stale loads to revalidations.  It also
implements the session guarantees (read-your-writes, monotonic reads) and the
opt-in causal/strong consistency levels described in Section 3.2 of the paper.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence

from repro.bloom.bloom_filter import BloomFilter
from repro.caching.entry import CacheEntry
from repro.caching.expiration import ExpirationCache
from repro.caching.hierarchy import CacheHierarchy, ORIGIN_LEVEL
from repro.caching.invalidation import InvalidationCache
from repro.clock import Clock
from repro.client.freshness import FreshnessPolicy
from repro.client.session import ClientSession
from repro.client.whitelist import DifferentialWhitelist
from repro.core.consistency import ConsistencyLevel
from repro.core.representation import ResultRepresentation
from repro.db.documents import Document
from repro.db.query import Query, record_key
from repro.metrics.counters import Counter
from repro.rest.etags import etag_for_version
from repro.rest.messages import Response, StatusCode

#: Synthetic level reported when a result was served from session state
#: (read-your-writes / monotonic-reads fallback); it involves no network.
SESSION_LEVEL = "session"

#: Synthetic level reported when the origin answered with a structured 503
#: (shard primary down, no eligible replica).  The request still paid a
#: round trip; the simulator accounts it as a failed operation.
ERROR_LEVEL = "error"

#: Synthetic level reported when an unavailable origin was answered from the
#: client's *expired* cache entry under the stale-if-error policy.  A
#: deliberately distinct level: degraded serves must never be counted as
#: fresh cache hits, and the freshness audit records them with an explicit
#: degraded marker.
DEGRADED_LEVEL = "stale-if-error"

_OBJECT_LIST = ResultRepresentation.OBJECT_LIST.value
_STRONG = ConsistencyLevel.STRONG
#: Queries whose last served result stays prepared (see _cache_result_records).
_PREPARED_QUERIES = 1024


@dataclass(slots=True)
class ClientResult:
    """Outcome of a client operation, including where it was served from."""

    key: str
    value: Any
    level: str
    etag: Optional[str] = None
    version: Optional[int] = None
    revalidated: bool = False
    #: Levels of any additional per-record fetches (id-list assembly).
    extra_levels: Sequence[str] = ()
    #: True when served under stale-if-error: the value is *known* expired,
    #: surfaced only because the authoritative path was unavailable.
    degraded: bool = False


class QuaestorClient:
    """A browser/mobile client talking to a :class:`QuaestorServer`.

    Parameters
    ----------
    server:
        The Quaestor server (origin).
    cdn:
        The shared invalidation-based cache between this client and the
        origin, or ``None`` when no CDN is part of the setup.
    refresh_interval:
        Delta: how often the EBF copy is refreshed (the staleness bound).
    consistency:
        Default consistency level for this session.
    use_client_cache / use_ebf:
        Feature switches used to reproduce the paper's baselines
        (CDN-only: no client cache and no EBF; uncached: neither cache).
    """

    def __init__(
        self,
        server,
        cdn: Optional[InvalidationCache] = None,
        clock: Optional[Clock] = None,
        refresh_interval: float = 10.0,
        consistency: ConsistencyLevel = ConsistencyLevel.DELTA_ATOMIC,
        use_client_cache: bool = True,
        use_ebf: bool = True,
        name: str = "client",
        resilience=None,
        tracer=None,
    ) -> None:
        self.server = server
        self.name = name
        #: Observability (:class:`repro.obs.TraceRecorder`), fixed at
        #: construction: when attached, every operation opens a root span
        #: (``sdk.read`` / ``sdk.query`` / ``sdk.insert`` / ...) that the layers
        #: below hang their spans off.  ``None`` keeps the hot path span-free:
        #: the operations run unwrapped, with no dispatch frame.
        self.tracer = tracer
        if tracer is not None:
            for operation in ("read", "query", "insert", "update", "delete"):
                setattr(
                    self,
                    operation,
                    partial(self._with_root, f"sdk.{operation}", getattr(self, operation)),
                )
        self._clock: Clock = clock if clock is not None else server.clock
        self.consistency = consistency
        self.use_client_cache = use_client_cache
        self.use_ebf = use_ebf
        # Stale-if-error: with a resilience config attached (and its policy
        # set), an unavailable origin may be answered from the client's
        # expired cache entry, bounded by the policy's staleness budget.
        self._stale_policy = resilience.stale_if_error if resilience is not None else None

        self.client_cache = ExpirationCache(f"{name}-cache", self._clock)
        levels = []
        if use_client_cache:
            levels.append(("client", self.client_cache))
        if cdn is not None:
            levels.append(("cdn", cdn))
        self._hierarchy = CacheHierarchy(levels, origin=self._origin_fetch)
        #: No cache level and no EBF (the uncached baseline): reads and queries
        #: call the server directly -- no cache to walk, no whitelist to keep.
        self._direct = not levels and not use_ebf

        self.freshness = FreshnessPolicy(refresh_interval)
        self.whitelist = DifferentialWhitelist()
        self.session = ClientSession()
        self.counters = Counter()

        self._bloom: Optional[BloomFilter] = None
        self._known_queries: Dict[str, Query] = {}
        self._pending_origin_response: Optional[Response] = None
        self._causal_revalidate = False
        # Replica-read routing: servers that opt in (the cluster facade)
        # receive the session's consistency level and causal frontier with
        # every record read, so a replicated shard can decide whether a
        # lagging replica may serve it.  The frontier is the timestamp of the
        # newest primary state this session has observed or written.
        self._server_replica_reads = bool(getattr(server, "supports_replica_reads", False))
        self._origin_read_context: tuple = (consistency, None)
        self._causal_frontier = 0.0
        # Per-level hit counter names, fixed with the hierarchy.
        self._hit_counter_names: Dict[str, str] = {
            level: f"hits_{level}" for level in (*self._hierarchy.level_names, ORIGIN_LEVEL)
        }
        # Prepared member entries per query cache key -> (result etag, served
        # id list, entries, body, record_ttl): the etag pins the member ids
        # and versions, the id list their served order, and the body object
        # (with its record_ttl) is the one a cache hit serves again.  The
        # entries are private to this client's cache and are restamped on
        # every re-serve (see _cache_result_records).  One version per query
        # -- the one that can still be re-served -- so a superseded result
        # stops pinning its entries and documents the moment its successor
        # arrives, and an LRU over the queries so a long tail of one-off
        # queries ages out.
        self._prepared_records: "OrderedDict[str, tuple]" = OrderedDict()

    # -- connection / EBF management -----------------------------------------------------

    def connect(self) -> None:
        """Initial connect: fetch the piggybacked EBF (cached initialization)."""
        self.refresh_bloom_filter()

    def refresh_bloom_filter(self) -> None:
        """Fetch a fresh flat EBF copy and reset the differential whitelist."""
        if not self.use_ebf:
            return
        self._bloom = self.server.get_bloom_filter()
        self.freshness.mark_refreshed(self._clock.now())
        self.whitelist.reset()
        self._causal_revalidate = False
        self.counters.increment("ebf_refreshes")

    def now(self) -> float:
        return self._clock.now()

    @property
    def causal_frontier(self) -> float:
        """Timestamp of the newest primary state this session observed/wrote.

        Exposed read-only for the consistency-history recorder: the
        causal-frontier checker asserts it is monotone per session and
        never advanced by a degraded (stale-if-error / partial) serve.
        """
        return self._causal_frontier

    # -- reads -------------------------------------------------------------------------------

    def _with_root(self, name: str, impl, *args, **kwargs) -> ClientResult:
        """Run ``impl`` under a tracing root span, decorated with the outcome.

        Only installed when a tracer is attached; nested operations (the
        per-member reads assembling an id-list query result) become child
        spans of the enclosing root automatically.
        """
        tracer = self.tracer
        span = tracer.begin(name)
        try:
            result = impl(*args, **kwargs)
        except BaseException:
            tracer.end(span)
            raise
        tracer.end(span, "key", result.key, "level", result.level)
        return result

    def read(
        self,
        collection: str,
        document_id: str,
        consistency: Optional[ConsistencyLevel] = None,
    ) -> ClientResult:
        """Read a single record with the session's (or an overriding) consistency."""
        self.counters.counts["reads"] += 1
        key = record_key(collection, document_id)
        level_consistency = consistency if consistency is not None else self.consistency
        # One instant per operation: the refresh check and every cache
        # level's freshness check use it (a direct client needs none).
        direct = self._direct
        now = None if direct else self._clock.now()
        refresh_due = self.use_ebf and self.freshness.needs_refresh(now)

        if self._server_replica_reads:
            # Only replicated servers consume the routing hints; keep the
            # tuple construction off the single-server hot path.
            self._origin_read_context = (
                level_consistency,
                self._causal_frontier
                if level_consistency is ConsistencyLevel.CAUSAL
                else None,
            )
        response = None
        if direct:
            if self._server_replica_reads:
                response = self._origin_fetch(key)  # routed by the hints above
            else:
                response = self.server.handle_read(collection, document_id)
        result = self._fetch(key, level_consistency, refresh_due, response, now)
        document = result.value
        version = None
        if isinstance(document, dict):
            if "error" in document and document["error"] == "unavailable":
                # Structured 503 from a replicated cluster: the shard cannot
                # serve this read at the requested level right now.  The failed
                # round trip must not whitelist the key or touch session state.
                if refresh_due:
                    self.refresh_bloom_filter()
                degraded = self._stale_if_error(key)
                if degraded is not None:
                    return degraded
                return self._unavailable_result(key, "reads")
            if "document" in document:
                # A record body (render_record_read): unwrap it into the result.
                version = result.version = document["version"]
                document = result.value = document["document"]

        session = self.session
        if version is not None and not session.observe_read(key, version, document):
            # Monotonic reads: never expose a version older than one this
            # session has already seen (the session recorded nothing).
            self.counters.increment("monotonic_read_fallbacks")
            version, document = session.monotonic_fallback(key)
            result = ClientResult(
                key, document, SESSION_LEVEL, result.etag, version, result.revalidated
            )

        if refresh_due:
            # The promoted revalidation piggybacks a fresh EBF copy; refresh it
            # first so the whitelist entry below survives until the *next*
            # renewal (it is as fresh as the new filter).
            self.refresh_bloom_filter()
        if not direct and (result.revalidated or result.level == ORIGIN_LEVEL):
            self.whitelist.add(key)
        if level_consistency is ConsistencyLevel.CAUSAL:
            self._update_causal_state(result.level)
        return result

    def query(
        self,
        query: Query,
        consistency: Optional[ConsistencyLevel] = None,
    ) -> ClientResult:
        """Execute a query, transparently assembling id-list results."""
        counts = self.counters.counts
        counts["queries"] += 1
        key = query.cache_key
        level_consistency = consistency if consistency is not None else self.consistency
        direct = self._direct
        now = None if direct else self._clock.now()  # the operation's one instant
        refresh_due = self.use_ebf and self.freshness.needs_refresh(now)

        # The fetch's result is the query's: only its value (and the markers
        # of a partial answer) are filled in below.
        if direct:
            result = self._fetch(key, level_consistency, refresh_due, self.server.handle_query(query))
        else:
            self._known_queries[key] = query
            result = self._fetch(key, level_consistency, refresh_due, None, now)
        body = result.value if isinstance(result.value, dict) else {}
        if "error" in body and body["error"] == "unavailable":
            # Every shard primary is down: total scatter unavailability.
            if refresh_due:
                self.refresh_bloom_filter()
            return self._unavailable_result(key, "queries", value=[])
        # A degraded merge (some shard down, partial result) is served for
        # availability but is NOT an authoritative response: it must never
        # whitelist the key as fresh (a stale cached full result would then
        # skip the revalidation the EBF flag demanded) nor advance causal
        # state.
        degraded = "shard_errors" in body
        if degraded:
            counts["degraded_queries"] += 1

        if body.get("representation", _OBJECT_LIST) == _OBJECT_LIST:
            result.value = body["documents"] if "documents" in body else []
            if not direct:
                self._cache_result_records(query.collection, body, key, result.etag, now)
        else:
            result.value, result.extra_levels = self._assemble_id_list(
                query.collection, body.get("ids", [])
            )
            if ERROR_LEVEL in result.extra_levels:
                # A member record could not be served (its shard is down):
                # the assembled result is partial and must be treated like a
                # degraded merge -- served, but never whitelisted as fresh
                # and never advancing causal state.
                degraded = True
                counts["degraded_queries"] += 1
        result.degraded = degraded

        if refresh_due:
            # Refresh before whitelisting so the revalidated result stays
            # whitelisted until the next EBF renewal (see read()).
            self.refresh_bloom_filter()
        if not degraded:
            if not direct and (result.revalidated or result.level == ORIGIN_LEVEL):
                self.whitelist.add(key)
            if level_consistency is ConsistencyLevel.CAUSAL:
                self._update_causal_state(result.level)
        elif level_consistency is ConsistencyLevel.CAUSAL:
            # The partial merge still delivered origin-fresh documents from
            # the surviving shards; causal order demands subsequent reads
            # revalidate (the safe direction).  The causal *frontier* is
            # deliberately not advanced -- a partial result is not evidence
            # that replicas have caught up to anything.
            self._causal_revalidate = True
        return result

    # -- writes -------------------------------------------------------------------------------

    def insert(self, collection: str, document: Document) -> ClientResult:
        """Insert a new record (writes always go to the origin)."""
        self.counters.counts["writes"] += 1
        response = self.server.handle_insert(collection, document)
        key = record_key(collection, str(document.get("_id", "")))
        # Re-inserting a previously deleted _id continues its version
        # sequence, so the server's assigned version is authoritative.
        return self._own_write_result(key, response, 1)

    def update(self, collection: str, document_id: str, update: Document) -> ClientResult:
        """Apply a partial update to a record."""
        self.counters.counts["writes"] += 1
        key = record_key(collection, document_id)
        # Beginning an update invalidates the record in the client's own cache
        # (the behaviour the paper relies on in its staleness analysis).
        self.client_cache.remove(key)
        response = self.server.handle_update(collection, document_id, update)
        return self._own_write_result(key, response, None)

    def delete(self, collection: str, document_id: str) -> ClientResult:
        """Delete a record."""
        self.counters.counts["writes"] += 1
        key = record_key(collection, document_id)
        self.client_cache.remove(key)
        response = self.server.handle_delete(collection, document_id)
        if response.status is StatusCode.SERVICE_UNAVAILABLE:
            return self._unavailable_result(key, "writes")
        self.session.observe_read(key, -1, None)
        self._causal_frontier = self._clock.now()
        return ClientResult(
            key=key,
            value=(response.body or {}).get("document"),
            level=ORIGIN_LEVEL,
            revalidated=True,
        )

    # -- transactions -----------------------------------------------------------------------------

    def begin_transaction(self):
        """Start an optimistic transaction (validated at commit time)."""
        return self.server.begin_transaction()

    # -- internals: fetching -------------------------------------------------------------------------

    def _fetch(
        self,
        key: str,
        consistency: ConsistencyLevel,
        refresh_due: bool,
        response: Optional[Response] = None,
        now: Optional[float] = None,
    ) -> ClientResult:
        """One request through the cascade: EBF -> client cache -> CDN -> origin.

        Decides whether the load must be a revalidation (strong read, EBF
        refresh due, causal session that saw newer state, or the EBF flags
        the key and it is not whitelisted), fetches through the hierarchy and
        accounts the serving level.  A direct client passes the origin's
        ``response`` it already has, and the hierarchy is skipped; any other
        passes the operation's instant ``now`` on to the cache levels.
        """
        counts = self.counters.counts
        bypass_all = consistency is _STRONG  # the level that always revalidates
        if bypass_all:
            revalidate = True
        else:
            bloom = self._bloom
            revalidate = (
                refresh_due
                or self._causal_revalidate
                or (
                    bloom is not None
                    and self.use_ebf
                    and key not in self.whitelist.fresh_keys
                    and bloom.contains(key)
                )
            )
            if revalidate:
                counts["revalidations"] += 1
        if response is None:
            fetch = self._hierarchy.fetch(key, now, revalidate, bypass_all)
            level, body, etag, revalidate = fetch.level, fetch.body, fetch.etag, fetch.revalidated
        else:
            level, body, etag = ORIGIN_LEVEL, response.body, response.etag
        counts[self._hit_counter_names[level]] += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.event("sdk.fetch", "level", level, "revalidated", revalidate)
        return ClientResult(key, body, level, etag, None, revalidate)

    def _origin_fetch(self, key: str) -> Response:
        """Resolve a cache key at the origin (the hierarchy's origin hook)."""
        if key.startswith("record:"):
            _, _, rest = key.partition(":")
            collection, _, document_id = rest.partition("/")
            if self._server_replica_reads:
                # The replicated cluster routes the read by the session's
                # consistency level (strong pins the primary; Delta-atomic/
                # causal reads may scale out to replicas).
                level, min_timestamp = self._origin_read_context
                return self.server.handle_read(
                    collection,
                    document_id,
                    consistency=level,
                    min_timestamp=min_timestamp,
                )
            return self.server.handle_read(collection, document_id)
        query = self._known_queries.get(key)
        if query is None:
            raise KeyError(f"unknown query cache key: {key}")
        return self.server.handle_query(query)

    # -- internals: record handling ----------------------------------------------------------------------

    def _cache_result_records(
        self,
        collection: str,
        body: Dict[str, Any],
        query_key: str,
        result_etag: Optional[str],
        now: float,
    ) -> None:
        """Insert all records of an object-list result into the client cache.

        This is the "read cache hits by side effect" the paper observes: once a
        query result is cached, reads of its member records become client-cache
        hits as well.

        Every serving of the result re-stores its member records, in served
        document order, for the ``record_ttl`` this serving carries.  What a
        store *is* -- record key, etag, body, and the version the session
        observes -- is a pure
        function of the member's version.  So a member's entry is built, and
        observed into the session, once per *member version*: a re-serve of
        the same result only restamps its entries in one batch
        (:meth:`~repro.caching.base.WebCache.restamp`), and a new result
        version of ``query_key`` keeps the entry of every member whose
        version did not change and builds the changed ones.  Observing a kept
        member again would be a no-op: the session already holds it at this
        version or a newer one.  A re-serve of the very body object last
        prepared (a cache hit hands the stored body out) restamps at once:
        its members, their order and its ``record_ttl`` are the prepared ones.
        """
        memo = self._prepared_records
        prepared = memo.get(query_key)
        if prepared is not None and prepared[3] is body:
            memo.move_to_end(query_key)
            self.client_cache.restamp(prepared[2], prepared[4], now)
            return
        record_ttl = body.get("record_ttl", 0.0) or 0.0
        if not self.use_client_cache or record_ttl <= 0:
            return
        documents = body.get("documents")
        if not documents:
            return
        ids = body.get("ids")
        if prepared is not None and prepared[0] == result_etag and prepared[1] == ids:
            entries = prepared[2]
        else:
            # A new result version, or the same members served in another
            # order.  ``ids`` names ``documents`` one to one (the wire format,
            # :func:`~repro.core.representation.object_list_body`).  The kept
            # entries stay private to this client -- they move from the
            # superseded memo tuple to its successor -- and are stamped, like
            # the new ones, by the restamp below.
            if ids is None:
                ids = [str(document.get("_id", "")) for document in documents]
            kept = dict(zip(prepared[1], prepared[2])) if prepared is not None else {}
            entries = list(map(kept.get, ids))
            versions = list(map(body.get("record_versions", {}).get, ids))
            observe_read = self.session.observe_read
            for index, entry in enumerate(entries):
                version = versions[index]
                if entry is None or entry.body["version"] != version:
                    if version is None:
                        version = 0
                    document_id = ids[index]
                    document = documents[index]
                    key = record_key(collection, document_id)
                    entries[index] = CacheEntry(
                        key,
                        {"document": document, "version": version},
                        etag_for_version(collection, document_id, version),
                        0.0,
                        record_ttl,
                    )
                    observe_read(key, version, document)
        if result_etag is not None:
            memo[query_key] = (result_etag, ids, entries, body, record_ttl)
            memo.move_to_end(query_key)
            if len(memo) > _PREPARED_QUERIES:
                memo.popitem(last=False)
        self.client_cache.restamp(entries, record_ttl, now)

    def _assemble_id_list(self, collection: str, ids: List[str]) -> tuple:
        """Fetch each member record of an id-list result through the cache chain.

        Member reads that fail (shard down, ``ERROR_LEVEL``) leave a gap in
        the documents but keep their level in the level list, so the caller
        can tell a partial assembly from a complete one.
        """
        documents: List[Document] = []
        levels: List[str] = []
        for document_id in ids:
            record_result = self.read(collection, document_id)
            if record_result.value is not None:
                documents.append(record_result.value)
            levels.append(record_result.level)
        return documents, levels

    def _unavailable_result(self, key: str, kind: str, value: Any = None) -> ClientResult:
        """The one definition of an unavailability outcome.

        Counts the failure (``unavailable_<kind>``) and returns the
        ERROR_LEVEL result; no session state, whitelist entry or cache store
        may ever accompany a failed request.
        """
        self.counters.increment(f"unavailable_{kind}")
        return ClientResult(key=key, value=value, level=ERROR_LEVEL)

    def _stale_if_error(self, key: str) -> Optional[ClientResult]:
        """Degraded serving: answer an unavailable origin from expired cache.

        Consults the client cache *including* expired entries
        (:meth:`~repro.caching.base.WebCache.peek`, which never touches
        hit/miss statistics) and serves the entry only while it is within
        the stale-if-error policy's staleness budget past its freshness
        deadline.  The result carries :data:`DEGRADED_LEVEL` and the
        ``degraded`` marker -- it is never a cache *hit* (no ``hits_*``
        counter moves), never whitelisted, and never observed into session
        state (the value is known stale; monotonic/causal bookkeeping must
        not advance on it).
        """
        policy = self._stale_policy
        if policy is None or not self.use_client_cache:
            return None
        entry = self.client_cache.peek(key)
        if entry is None:
            return None
        age_past_expiry = self.now() - entry.fresh_until
        if not policy.may_serve(age_past_expiry):
            self.counters.increment("stale_if_error_rejects")
            return None
        self.counters.increment("stale_if_error_serves")
        if self.tracer is not None:
            self.tracer.event("sdk.stale_if_error", "key", key)
        body = entry.body if isinstance(entry.body, dict) else {}
        return ClientResult(
            key=key,
            value=body.get("document"),
            level=DEGRADED_LEVEL,
            etag=entry.etag,
            version=body.get("version"),
            degraded=True,
        )

    def _own_write_result(
        self, key: str, response: Response, default_version: Optional[int]
    ) -> ClientResult:
        """Absorb the origin's answer to an own insert/update and report it.

        ``default_version`` is what the result reports when the answer carries
        no version (1 for an insert, ``None`` for an update); the session
        books an acknowledged write without one at version 1.
        """
        status = response.status
        if status is StatusCode.SERVICE_UNAVAILABLE:
            return self._unavailable_result(key, "writes")
        body = response.body or {}
        version = body.get("version", default_version)
        document = body.get("document")
        if status is StatusCode.OK or status is StatusCode.CREATED:
            self.session.observe_read(key, 1 if version is None else version, document)
            # An acknowledged write advances the causal frontier: replicas
            # may only serve this session once they have applied it.
            self._causal_frontier = self._clock.now()
        return ClientResult(key, document, ORIGIN_LEVEL, None, version, True)

    def _update_causal_state(self, level: str) -> None:
        """A causal session was served at ``level``."""
        # A read served by the origin or the CDN may be newer than the EBF
        # copy; until the next refresh, subsequent reads must revalidate to
        # preserve causal order (option 2 in Section 3.2).
        if level == ORIGIN_LEVEL or level == "cdn":
            self._causal_revalidate = True
            # The session observed (potentially) primary-fresh state: lagging
            # replicas must catch up to this instant before serving it again.
            self._causal_frontier = self._clock.now()

    # -- statistics -----------------------------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"QuaestorClient(name={self.name!r}, consistency={self.consistency.value})"
