"""Sharded Quaestor deployments: N independent servers behind one router.

A :class:`QuaestorCluster` runs ``num_shards`` complete Quaestor stacks side
by side -- each shard owns its own document :class:`~repro.db.Database`,
:class:`~repro.core.QuaestorServer`, Expiring Bloom Filter, TTL estimator and
InvaliDB cluster.  Records are placed onto shards by the consistent-hash
:class:`~repro.cluster.router.ShardRouter`; queries scatter over every shard
and their results are gathered and merged here.

The merge preserves single-node semantics exactly: shard sub-results are
concatenated, re-sorted with the same comparator the collections use, and the
global ``OFFSET``/``LIMIT`` window is cut afterwards (each shard fetches the
top ``offset + limit`` candidates so the global window is always covered).
Cache-Control headers are merged with *min-TTL wins*: the merged result is
only as cacheable as its least cacheable shard sub-result, so no cache ever
holds the merged entry longer than any shard could vouch for.

Capacity admission on the scatter path is **two-phase**: the cluster first
*probes* every shard (:meth:`~repro.core.QuaestorServer.prepare_shard_query`,
side-effect-free) and only when all shards admit commits the admission slots,
InvaliDB registrations, active-list entries and EBF reports.  If any shard
rejects, every prepared read is aborted -- no shard maintains bookkeeping for
a merged result that is never cached, which is exactly the waste the old
admit-then-discover-the-rejection sequence incurred.

Each write routes on its own to the owning shard's primary, whose server
matches the after-image against InvaliDB before it acknowledges.

Replication and failure handling
--------------------------------
Every shard is a :class:`~repro.replication.ReplicaGroup`: a primary plus
``replication_factor - 1`` asynchronously shipped replicas
(:mod:`repro.replication`); its ``server`` and ``database`` name the current
primary.  Record reads route through the group, which may serve
Delta-atomic/causal sessions from a replica; STRONG reads and all writes need
the primary.  When a primary is down:

* record reads degrade to replicas where the consistency level allows it,
  otherwise the caller receives a structured 503 response,
* writes receive the structured 503 response,
* scatter queries skip the dead shard and return a *degraded* merge -- the
  surviving sub-results, uncacheable, with a ``shard_errors`` map in the
  body -- instead of raising through the whole request, and
* :meth:`QuaestorCluster.failover` promotes the freshest replica, re-routes
  the shard to the new server and rebuilds the InvaliDB registrations and
  active-list entries of every query the cluster had committed (the cluster
  keeps that registry -- the control-plane knowledge that survives any
  single node).  The shared Expiring Bloom Filter degrades fail-stale: lost
  log suffixes and rebuilt query keys are flagged invalid, so caches
  revalidate rather than trust state the new primary never had.

With ``replication_factor=1`` and no injected faults all of this is a strict
no-op: the group routes every request to its primary.

One request path
----------------
Each request kind has one path.  A record read is :meth:`QuaestorCluster.read`
-> :meth:`ReplicaGroup.read`; a write is :meth:`QuaestorCluster._write` ->
the shard server's handler; a query is one scatter loop over the shards.
Retries with seeded backoff, circuit breakers and the deadline budget
(:mod:`repro.resilience`) and gray-failure drops (:mod:`repro.faults.gray`)
sit inside those loops and cost a healthy request only what it uses: with
no resilience runtime and no gray condition in force a request makes no
policy call at all -- one attempt, served or answered with the structured
503 -- and with a runtime attached a healthy request pays its breaker
checks and nothing else.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bloom.bloom_filter import BloomFilter
from repro.clock import Clock, VirtualClock
from repro.core.config import QuaestorConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.representation import (
    ResultTagMemo,
    choose_representation,
    object_list_body,
    query_result_body,
)
from repro.core.server import PurgeTarget, QuaestorServer
from repro.db.database import Database
from repro.db.documents import Document
from repro.db.query import Query, window_ids
from repro.errors import ShardUnavailableError, UnsupportedFaultError
from repro.faults.gray import GrayFailureState
from repro.faults.plan import target_shard
from repro.resilience import ResilienceConfig, ResilienceRuntime
from repro.invalidb.cluster import InvaliDBCluster
from repro.metrics.counters import Counter
from repro.cluster.metrics import cluster_statistics
from repro.cluster.router import ShardRouter
from repro.replication.config import ReplicationConfig
from repro.replication.group import ReplicaGroup
from repro.rest.messages import Response, StatusCode
from repro.simulation.staleness import StalenessAuditor
from repro.workloads.dataset import Dataset, INDEXED_QUERY_FIELD


class QuaestorCluster:
    """A fleet of independent Quaestor servers sharded by record key.

    Parameters
    ----------
    num_shards:
        Number of shards; each is a complete Quaestor stack.
    clock:
        Shared time source (one virtual clock drives the whole fleet).
    config:
        Middleware configuration applied to every shard (and used by the
        router when choosing the merged result representation).
    matching_nodes:
        InvaliDB matching nodes *per shard*.
    auditor:
        Shared staleness auditor; record versions are global, so one auditor
        observes the whole cluster -- every shard server, failover promotion
        and scatter merge installs through it (and through it into an
        attached history recorder).
    dataset:
        Optional dataset loaded (routed by record key) into the shard
        databases *before* the servers subscribe to the change streams,
        mirroring the single-node simulator's pre-load.
    """

    def __init__(
        self,
        num_shards: int,
        clock: Optional[Clock] = None,
        config: Optional[QuaestorConfig] = None,
        matching_nodes: int = 1,
        auditor: Optional[StalenessAuditor] = None,
        dataset: Optional[Dataset] = None,
        replication: Optional[ReplicationConfig] = None,
        resilience: Optional[ResilienceConfig] = None,
        gray_seed: int = 0,
        tracer=None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.clock: Clock = clock if clock is not None else VirtualClock()
        self.config = config if config is not None else QuaestorConfig()
        self.router = ShardRouter(num_shards)
        #: ``"shard:N"`` per shard: the key of its circuit breaker (and of
        #: its shard-level gray conditions), built once.
        self._shard_keys = tuple(f"shard:{shard_id}" for shard_id in range(num_shards))
        self.auditor = auditor if auditor is not None else StalenessAuditor()
        self.counters = Counter()
        self.replication = replication if replication is not None else ReplicationConfig()
        self._matching_nodes = matching_nodes
        #: Gray failures (slow / flaky targets) the fault injector toggles;
        #: empty in every run without gray fault events, so the request paths
        #: never consult it (and draw no random numbers).
        self.gray = GrayFailureState(gray_seed)
        self.resilience = resilience
        self.resilience_runtime = (
            ResilienceRuntime(self.resilience, self.clock) if self.resilience else None
        )

        #: Observability (``repro.obs``): the optional, draw-free request
        #: tracer; ``_build_server`` binds it to every primary.
        self.tracer = tracer

        databases = [Database(clock=self.clock) for _ in range(num_shards)]
        if dataset is not None:
            self._load_dataset(databases, dataset)

        #: One replica group per shard (a strict no-op wrapper at RF=1), which
        #: is the shard.  Replicas are seeded from the primary *after* the
        #: dataset pre-load, so every copy starts from the same state and
        #: version sequence.
        self.groups: List[ReplicaGroup] = [
            ReplicaGroup(
                shard_id=shard_id,
                database=database,
                server=self._build_server(database),
                server_factory=self._build_server,
                clock=self.clock,
                config=self.replication,
            )
            for shard_id, database in enumerate(databases)
        ]
        if self.resilience_runtime is not None and self.resilience.breaker is not None:
            # Per-replica breakers: a replica that keeps failing (e.g. gray
            # ack drops) is routed around until its breaker half-opens.
            for group in self.groups:
                group.breaker_gate = self.resilience_runtime.allow
        #: Queries whose fleet-wide admission committed: the control-plane
        #: registry failover uses to rebuild InvaliDB registrations and
        #: active-list entries on a promoted primary.
        self._registered_queries: Dict[str, Query] = {}
        self._result_tags = ResultTagMemo()
        #: Purge targets / invalidation hooks registered fleet-wide, retained
        #: so a server installed by failover is wired identically to the one
        #: it replaces (otherwise CDN purges would silently stop post-crash).
        self._purge_targets: List[PurgeTarget] = []
        #: When each shard's primary went down (cleared when service
        #: resumes); lets recovery paths honour the failure-detection delay.
        self._primary_down_at: Dict[int, float] = {}
        #: Where the latest request of each kind ran, recorded once by its
        #: path: a served read's and an applied write's ``(shard_id,
        #: node_id)``, and a scatter's pair per live primary it iterated.
        #: The simulator prices these; nothing re-derives placement.
        self.read_placement: Optional[Tuple[int, str]] = None
        self.write_placement: Optional[Tuple[int, str]] = None
        self.scatter_placement: List[Tuple[int, str]] = []
        if tracer is not None:
            self.router.tracer = tracer
            for group in self.groups:
                group.tracer = tracer

    def _build_server(self, database: Database, ebf=None, ttl_estimator=None) -> QuaestorServer:
        """Server factory for every primary: a shard's first one builds its
        own Expiring Bloom Filter and TTL estimator.

        A promoted or recovered primary is handed them by its replica group:
        they model the shared coherence tier (the paper keeps this
        bookkeeping in Redis, not on the Quaestor process), so they survive
        the crash.  The InvaliDB matching cluster does *not* -- it dies with
        the primary and is rebuilt empty here; the cluster re-registers the
        committed queries afterwards.
        """
        server = QuaestorServer(
            database,
            config=self.config,
            invalidb=InvaliDBCluster(matching_nodes=self._matching_nodes),
            ttl_estimator=ttl_estimator,
            ebf=ebf,
            auditor=self.auditor,
        )
        server.tracer = self.tracer
        return server

    # -- construction helpers ---------------------------------------------------------

    def _load_dataset(self, databases: List[Database], dataset: Dataset) -> None:
        """Pre-load ``dataset``: route every document to its owning shard, then
        load each shard's share of a table at once."""
        for table in dataset.tables:
            documents = dataset.documents[table]
            shard_ids = self.router.shards_for_records(
                table, [str(document["_id"]) for document in documents]
            )
            routed: List[List[Document]] = [[] for _ in databases]
            for shard_id, document in zip(shard_ids, documents):
                routed[shard_id].append(document)
            # Every shard materialises every collection so scatter queries and
            # later inserts never hit a missing-collection error.
            for database, share in zip(databases, routed):
                collection = database.create_collection(table)
                collection.create_index(INDEXED_QUERY_FIELD)
                collection.preload(share)

    @property
    def num_shards(self) -> int:
        return len(self.groups)

    # -- fleet-wide wiring --------------------------------------------------------------

    def register_purge_target(self, target: PurgeTarget) -> None:
        """Register a purge target (e.g. the shared CDN) with every shard.

        Retained cluster-side as well: a server installed by failover must be
        wired to the same targets as the one it replaces.
        """
        self._purge_targets.append(target)
        for group in self.groups:
            group.server.register_purge_target(target)

    def bloom_filter(self) -> BloomFilter:
        """Union of every shard's flat EBF snapshot (one client-facing filter).

        All shards share the same filter geometry (one config), so the union
        is a plain bitwise OR; a key invalidated on *any* shard flags the
        merged cached result as potentially stale.  The OR runs once over all
        shard snapshots (:meth:`BloomFilter.union_all`) instead of allocating
        one intermediate merged filter per shard.

        The per-shard filter is the replica group's *persistent* EBF (the
        shared coherence tier), so a primary crash never drops stale flags
        from the union -- the degradation mode is fail-stale by construction.
        """
        self.counters.increment("ebf_downloads")
        now = self.clock.now()
        return BloomFilter.union_all([group.ebf.to_flat(now) for group in self.groups])

    # -- read path -----------------------------------------------------------------------

    def read(
        self,
        collection: str,
        document_id: str,
        consistency: Optional[ConsistencyLevel] = None,
        min_timestamp: Optional[float] = None,
    ) -> Response:
        """Route a record read to its owning shard's replica group.

        ``consistency`` selects the read's routing (STRONG pins the primary;
        Delta-atomic/causal sessions may be served by a replica -- see
        :meth:`repro.replication.ReplicaGroup.read`); ``min_timestamp`` is a
        causal session's frontier.  When no node of the owning shard can
        serve the request, a structured 503 response is returned instead of
        an exception.

        Collections are materialised on every shard at insert/load time, so
        the hot path needs no existence scan; a read of a collection that was
        never created raises like on a single server.

        Every read walks the one loop below.  Reads are idempotent, so every
        failure mode -- shard unavailable, gray request drop, gray response
        drop -- is retryable up to the resilience policy's attempt budget,
        behind the per-shard circuit breaker and the deadline budget; backoff
        waits and extra attempts accumulate on the runtime's
        :class:`~repro.resilience.RequestTrace`, which the simulator drains
        into latency (virtual time cannot advance inside this synchronous
        loop).  Without a runtime the loop is one attempt, and while no gray
        condition is in force no drop check runs, so a read with neither
        makes no policy call at all.
        """
        self.counters.counts["reads"] += 1
        shard_id = self.router.route("read", collection, document_id)
        tracer = self.tracer
        span = tracer.begin("cluster.read") if tracer is not None and tracer.recording else None
        runtime = self.resilience_runtime
        gray = self.gray
        group = self.groups[shard_id]
        shard_key = self._shard_keys[shard_id]
        attempts = 1 if runtime is None else runtime.read_attempts
        # The deadline budget is built lazily on the first failure: a clean
        # first attempt (the overwhelmingly common case) allocates nothing.
        deadline = None
        try:
            for attempt in range(attempts):
                if runtime is not None and not runtime.allow(shard_key):
                    self.counters.increment("breaker_fast_fails")
                    runtime.trace.fast_failed = True
                    break
                if attempt:
                    self.counters.increment("read_retries")
                try:
                    # A shard-level flaky target drops the *request* before
                    # it reaches any node; a node-level one drops the
                    # *response* after the read was served.
                    if gray.active and gray.should_drop_request(shard_id):
                        self.counters.increment("gray_request_drops")
                        raise ShardUnavailableError(
                            f"shard {shard_id}: request dropped (gray failure)"
                        )
                    response = group.read(
                        collection, document_id,
                        consistency=consistency, min_timestamp=min_timestamp,
                    )
                    served_by = group.last_served_node_id
                    if gray.active and gray.should_drop_response(served_by):
                        self.counters.increment("gray_response_drops")
                        if runtime is not None and served_by is not None:
                            runtime.record_failure(served_by)
                        raise ShardUnavailableError(
                            f"{served_by}: response dropped (gray failure)"
                        )
                except ShardUnavailableError:
                    if runtime is None:
                        break
                    runtime.record_failure(shard_key)
                    if deadline is None:
                        deadline = runtime.new_deadline()
                    if not self._plan_retry(runtime, deadline, attempt, attempts):
                        break
                    continue
                if runtime is not None:
                    if served_by is not None:
                        runtime.record_success(served_by)
                    runtime.record_success(shard_key)
                    if attempt:
                        self.counters.increment("read_retry_successes")
                self.read_placement = (shard_id, served_by)
                return response
            self.counters.increment("read_errors")
            return self._unavailable_response(shard_id)
        finally:
            if span is not None:
                tracer.end(span, "shard", shard_id)

    def _plan_retry(
        self,
        runtime: ResilienceRuntime,
        deadline,
        attempt: int,
        attempts: int,
    ) -> bool:
        """Decide (and account for) one more attempt after a failure.

        Charges the jittered backoff plus the nominal per-attempt round trip
        against the request's deadline budget *before* the retry goes out --
        a request never starts work it has no time budget left for.
        """
        if attempt + 1 >= attempts:
            return False
        backoff = runtime.backoff(attempt)
        if deadline is not None:
            cost = backoff + runtime.config.assumed_round_trip
            if not deadline.allows(cost):
                self.counters.increment("deadline_exhausted")
                return False
            deadline.charge(cost)
        runtime.trace.backoff_s += backoff
        runtime.trace.extra_round_trips += 1
        return True

    # -- gray failure surface (driven by the fault injector) ------------------------------

    def slow_target(self, target: str, factor: float) -> None:
        """Inflate a target's (``"shard:N"`` / ``"sN:nM"``) latency by ``factor``."""
        self.gray.set_slow(target, factor)
        self.counters.increment("gray_slow_events")

    def flaky_target(self, target: str, rate: float) -> None:
        """Make a target drop a seeded ``rate`` fraction of its traffic."""
        self.gray.set_flaky(target, rate)
        self.counters.increment("gray_flaky_events")

    def restore_target(self, target: str) -> None:
        """Clear every gray condition on ``target``."""
        self.gray.restore(target)
        self.counters.increment("gray_restores")

    @staticmethod
    def _unavailable_response(shard_id: int) -> Response:
        """The structured 503 a caller sees instead of a raised exception."""
        return Response.uncacheable(
            {"error": "unavailable", "shard": shard_id},
            status=StatusCode.SERVICE_UNAVAILABLE,
        )

    def query(self, query: Query) -> Response:
        """Scatter ``query`` over every live shard with two-phase admission.

        Phase one probes every shard without side effects; phase two commits
        the admission slots and InvaliDB registrations only when *all* shards
        admitted, and aborts them all otherwise (min-TTL-wins would make the
        merge uncacheable anyway, so partial bookkeeping would be pure waste).

        Shards whose primary is down are skipped and reported in the merged
        body's ``shard_errors`` map: the caller receives the surviving
        sub-results as a *degraded*, uncacheable merge rather than an
        exception through the whole request.  Degraded merges take no
        registrations (their partial content must never be cached or drive
        invalidation state) and are not recorded as authoritative versions
        with the staleness auditor.  Only when every shard is up does the
        commit also enter the query into the cluster's registry, which
        failover later uses to rebuild registrations on a promoted primary.

        Collections are materialised on every shard at insert/load time, so
        no existence scan is needed here; querying a collection that was
        never created raises from the first shard, like on a single server.
        """
        self.counters.counts["scatter_queries"] += 1
        tracer = self.tracer if self.tracer is not None and self.tracer.recording else None
        span = tracer.begin("cluster.scatter") if tracer is not None else None
        try:
            now = self.clock.now()
            scatter = self._scatter_query(query)
            placement = self.scatter_placement = []
            prepared = []
            shard_errors: Dict[int, str] = {}
            runtime = self.resilience_runtime
            gray_active = self.gray.active
            # One deadline budget per scatter, shared by every shard's
            # retries: the gather point is only as patient as the whole
            # request's budget.
            deadline = runtime.new_deadline() if runtime is not None and gray_active else None
            for group in self.groups:
                shard_id = group.shard_id
                primary = group.primary_node
                if not primary.alive:
                    shard_errors[shard_id] = "primary-unavailable"
                    continue
                placement.append((shard_id, primary.node_id))
                if runtime is not None and not runtime.allow(self._shard_keys[shard_id]):
                    self.counters.increment("breaker_fast_fails")
                    shard_errors[shard_id] = "breaker-open"
                    continue
                if gray_active and not self._scatter_attempt(shard_id, deadline):
                    shard_errors[shard_id] = "request-dropped"
                    continue
                prepared.append(group.server.prepare_shard_query(query, scatter, deadline=deadline))
                if tracer is not None:
                    tracer.event("cluster.shard_query", "shard", shard_id)
            if shard_errors:
                self.counters.increment("scatter_queries_degraded")
                self.counters.increment("scatter_shard_errors", len(shard_errors))
                if tracer is not None:
                    for failed_shard, reason in sorted(shard_errors.items()):
                        tracer.event("cluster.shard_error", "shard", failed_shard, "reason", reason)
            if not prepared:
                # Every shard is down: nothing to merge, total unavailability.
                self.counters.increment("query_errors")
                return Response.uncacheable(
                    {"error": "unavailable", "shard_errors": shard_errors},
                    status=StatusCode.SERVICE_UNAVAILABLE,
                )
            # Phase two: commit when every shard admitted, else abort them all.
            ttls: Optional[List[Optional[Tuple[float, float]]]] = None
            if not shard_errors:
                for read in prepared:
                    if not read.admitted:
                        break
                else:
                    ttls = [read.commit() for read in prepared]
                    self._registered_queries[query.cache_key] = query
            if ttls is None:
                if not shard_errors and any(read.admitted for read in prepared):
                    # At least one probe succeeded but another shard
                    # rejected: the fleet-wide abort the two-phase protocol
                    # exists for.
                    self.counters.increment("scatter_queries_aborted")
                for read in prepared:
                    read.abort()
            if tracer is not None:
                tracer.event(
                    "cluster.gather", "shards", len(prepared), "degraded", bool(shard_errors)
                )
            return self._merge_query_responses(
                query, [read.body for read in prepared], ttls, now, shard_errors
            )
        finally:
            if span is not None:
                tracer.end(span, "shards", self.num_shards)

    def _scatter_attempt(self, shard_id: int, deadline) -> bool:
        """Get one scatter sub-request through a flaky shard (with retries).

        Returns ``True`` when the sub-request reaches the shard.  Without a
        resilience runtime a single gray drop loses the shard's contribution
        (the pre-resilience failure mode the benchmark's off-arm measures);
        with one, the sub-request retries on the shared scatter deadline.
        """
        runtime = self.resilience_runtime
        shard_key = self._shard_keys[shard_id]
        if not self.gray.should_drop_request(shard_id):
            if runtime is not None:
                runtime.record_success(shard_key)
            return True
        self.counters.increment("gray_request_drops")
        if runtime is None:
            return False
        runtime.record_failure(shard_key)
        attempts = runtime.read_attempts
        for attempt in range(attempts - 1):
            if not runtime.allow(shard_key):
                self.counters.increment("breaker_fast_fails")
                return False
            if not self._plan_retry(runtime, deadline, attempt, attempts):
                return False
            self.counters.increment("query_retries")
            if not self.gray.should_drop_request(shard_id):
                runtime.record_success(shard_key)
                self.counters.increment("query_retry_successes")
                return True
            self.counters.increment("gray_request_drops")
            runtime.record_failure(shard_key)
        return False

    def _scatter_query(self, query: Query) -> Query:
        """The per-shard fetch window covering the global result window.

        Each shard must return its top ``offset + limit`` candidates (in the
        global sort order) so that the merged, re-sorted stream provably
        contains the global window regardless of how matches are distributed.
        The window shares the query's compiled plan (criteria and sort are
        the same), so the shards' result memos know it again.
        """
        if query.limit is None and query.offset == 0:
            return query
        fetch_limit = None if query.limit is None else query.limit + query.offset
        scatter = Query(query.collection, query.criteria, sort=query.sort, limit=fetch_limit)
        object.__setattr__(scatter, "_plan", query._plan)
        return scatter

    def _merge_query_responses(
        self,
        query: Query,
        bodies: Sequence[Dict],
        ttls: Optional[Sequence[Optional[Tuple[float, float]]]],
        now: float,
        shard_errors: Dict[int, str],
    ) -> Response:
        """Merge the shards' sub-results into the client's response.

        ``ttls`` holds each committed shard's ``(ttl, shared_ttl)`` (``None``
        for a shard whose commit was re-arbitrated away), or is ``None``
        when the scatter aborted or degraded and no shard vouches for any
        freshness.
        """
        # A shard's ``record_versions`` keys name its ``documents`` one to one.
        by_id: Dict[str, Document] = {}
        versions: Dict[str, int] = {}
        for body in bodies:
            shard_versions = body["record_versions"]
            by_id.update(zip(shard_versions, body["documents"]))
            versions.update(shard_versions)

        # The same sort/window code path a single-node find() takes, applied
        # to the concatenated shard sub-results -- identical by construction.
        ids = window_ids(versions, by_id, query)
        documents = list(map(by_id.__getitem__, ids))
        window_versions = dict(zip(ids, map(versions.__getitem__, ids)))

        if shard_errors:
            # Degraded merge: some shards contributed nothing.  The partial
            # window is served (availability over completeness) but is never
            # cacheable, carries the per-shard error map and no ETag, and is
            # *not* recorded as an authoritative version -- a partial result
            # must not enter the staleness audit history as truth.
            body = object_list_body(documents, window_versions, record_ttl=0.0)
            body["shard_errors"] = dict(shard_errors)
            return Response.uncacheable(body)

        etag = self._result_tags.tag(query.cache_key, window_versions)
        self.auditor.record_version(query.cache_key, etag, now)

        # Min-TTL wins: the merged entry may only live as long as every shard
        # sub-result vouches for.  One uncacheable sub-result (capacity
        # rejection, caching disabled) makes the whole merge uncacheable.
        cacheable = ttls is not None and None not in ttls
        if cacheable:
            private_ttls, shared_ttls = zip(*ttls)
            ttl, shared_ttl = min(private_ttls), min(shared_ttls)
            cacheable = ttl > 0

        if not cacheable:
            self.counters.increment("scatter_queries_uncacheable")
            body = object_list_body(documents, window_versions, record_ttl=0.0)
            return Response.uncacheable(body, etag=etag)

        representation = choose_representation(
            result_size=len(documents),
            assumed_record_hit_rate=self.config.assumed_record_hit_rate,
            object_list_max_size=self.config.object_list_max_size,
        )
        body = query_result_body(documents, window_versions, representation, record_ttl=ttl)
        return Response.ok(body, ttl=ttl, shared_ttl=shared_ttl, etag=etag)

    # -- write path -----------------------------------------------------------------------

    def insert(self, collection: str, document: Document) -> Response:
        self.counters.counts["writes"] += 1
        # Inserting is what brings a collection into existence; materialise it
        # everywhere (including replicas, so a promoted replica can serve
        # scatter queries) so queries see a consistent schema.
        for group in self.groups:
            group.ensure_collection(collection)
        shard_id = self.router.route("write", collection, str(document.get("_id", "")))
        return self._write(
            shard_id, "insert", self.groups[shard_id].server.handle_insert, collection, document
        )

    def update(self, collection: str, document_id: str, update: Document) -> Response:
        self.counters.counts["writes"] += 1
        shard_id = self.router.route("write", collection, document_id)
        return self._write(
            shard_id, "update", self.groups[shard_id].server.handle_update,
            collection, document_id, update,
        )

    def delete(self, collection: str, document_id: str) -> Response:
        self.counters.counts["writes"] += 1
        shard_id = self.router.route("write", collection, document_id)
        return self._write(
            shard_id, "delete", self.groups[shard_id].server.handle_delete, collection, document_id
        )

    def _write(self, shard_id: int, op: str, handler, *args) -> Response:
        """Apply a routed write on the shard's primary: the one write path.

        ``handler`` is the shard server's bound write handler, called with
        ``args`` once the write is admitted.  Failures that happen *before*
        the primary admits the mutation -- a down primary, a gray request
        drop -- are retried like reads when a resilience runtime is
        attached: the write never reached a log, so re-sending cannot
        double-apply.  A gray *response* drop is different: the primary
        applied and replicated the write but the ack was lost.  Re-sending a
        non-idempotent mutation would double-apply it, so the loss surfaces
        as an error (counted separately as ``write_ack_drops``) and the
        breaker learns about the flaky node.  Without a runtime and with no
        gray condition in force the loop makes no policy call: the write
        applies, or a down primary answers with the structured 503.
        """
        tracer = self.tracer
        span = tracer.begin("cluster.write") if tracer is not None and tracer.recording else None
        runtime = self.resilience_runtime
        gray = self.gray
        group = self.groups[shard_id]
        shard_key = self._shard_keys[shard_id]
        attempts = 1 if runtime is None else runtime.write_attempts
        deadline = None
        try:
            for attempt in range(attempts):
                if runtime is not None and not runtime.allow(shard_key):
                    self.counters.increment("breaker_fast_fails")
                    runtime.trace.fast_failed = True
                    break
                if attempt:
                    self.counters.increment("write_retries")
                # Pre-admission checks: both failure modes are retryable.
                if gray.active and gray.should_drop_request(shard_id):
                    self.counters.increment("gray_request_drops")
                elif group.primary_node.alive:
                    response = handler(*args)
                    served_by = group.primary_node.node_id
                    if gray.active and gray.should_drop_response(served_by):
                        # Post-apply ack loss: never retried (see docstring).
                        self.counters.increment("gray_response_drops")
                        self.counters.increment("write_ack_drops")
                        if runtime is not None:
                            runtime.record_failure(served_by)
                        break
                    if runtime is not None:
                        runtime.record_success(shard_key)
                        if attempt:
                            self.counters.increment("write_retry_successes")
                    self.write_placement = (shard_id, served_by)
                    return response
                if runtime is None:
                    break
                runtime.record_failure(shard_key)
                if deadline is None:
                    deadline = runtime.new_deadline()
                if not self._plan_retry(runtime, deadline, attempt, attempts):
                    break
            self.counters.increment("write_errors")
            return self._unavailable_response(shard_id)
        finally:
            if span is not None:
                tracer.end(span, "shard", shard_id, "op", op)

    # -- replication fault surface ---------------------------------------------------------

    def shard_of(self, node_id: str) -> int:
        """The shard a node id (``"s<shard>:n<index>"``) belongs to; raises
        ``KeyError`` for an id no group holds."""
        try:
            group = self.groups[target_shard(node_id)]
        except (UnsupportedFaultError, IndexError):
            group = None
        if group is not None:
            for node in group.nodes:
                if node.node_id == node_id:
                    return group.shard_id
        raise KeyError(f"unknown node id {node_id!r}")

    def crash_node(self, node_id: str) -> Tuple[int, bool]:
        """Crash a node; returns ``(shard_id, lost_primary)``.

        Crashing a primary makes its shard unavailable for writes and strong
        reads until :meth:`failover` promotes a replica (or the node
        recovers); Delta-atomic/causal record reads keep flowing to the
        surviving replicas.
        """
        shard_id = self.shard_of(node_id)
        lost_primary = self.groups[shard_id].crash(node_id)
        self.counters.increment("node_crashes")
        if lost_primary:
            self._primary_down_at.setdefault(shard_id, self.clock.now())
        return shard_id, lost_primary

    def recover_node(self, node_id: str) -> Tuple[int, str]:
        """Recover a crashed node; returns ``(shard_id, role)``.

        A node rejoining a healthy group resyncs as a replica.  If it ends a
        total shard outage it resumes as primary, in which case the cluster
        rebuilds the committed query registrations exactly like after a
        promotion (the recovered process has an empty InvaliDB).
        """
        shard_id = self.shard_of(node_id)
        group = self.groups[shard_id]
        role = group.recover(node_id)
        self.counters.increment("node_recoveries")
        if role == "primary":
            self._install_primary(group)
        elif not group.primary_alive and self._detection_elapsed(shard_id):
            # A candidate rejoined a primary-less group whose failure
            # detection has already fired (any pending failover found nothing
            # to promote): promote the freshest candidate now.  Inside the
            # detection window nothing happens here -- the election in
            # flight (e.g. the injector's scheduled failover) completes on
            # its own schedule and will see this candidate.
            info = self.failover(shard_id)
            if info is not None and info["node_id"] == node_id:
                role = "primary"
        return shard_id, role

    def primary_down_since(self, shard_id: int) -> Optional[float]:
        """When the shard's primary went down (``None`` while it serves).

        The single authoritative tracker behind both the detection-window
        arithmetic here and the fault injector's time-to-recover metrics.
        """
        return self._primary_down_at.get(shard_id)

    def _detection_elapsed(self, shard_id: int) -> bool:
        """Whether the shard's failure-detection delay has fully elapsed."""
        down_at = self._primary_down_at.get(shard_id)
        if down_at is None:
            return True
        return self.clock.now() - down_at >= self.replication.failover_detection_delay

    def failover(self, shard_id: int) -> Optional[Dict[str, object]]:
        """Promote the freshest replica of ``shard_id`` and re-route to it.

        Returns the promotion record (or ``None`` when the primary is alive
        again or no replica survived).  After the promotion every query the
        cluster had committed is re-registered on the group's new server: the scatter pipeline re-runs prepare/commit so
        the InvaliDB registration, active-list entry and EBF report are
        rebuilt from the promoted database, and the query key itself is
        flagged stale in the shared filter so cached merged results
        revalidate instead of trusting a result the new primary may never
        have served (fail-stale).
        """
        group = self.groups[shard_id]
        info = group.promote()
        if info is None:
            return None
        self.counters.increment("failovers")
        self._install_primary(group)
        return info

    def _install_primary(self, group: ReplicaGroup) -> None:
        """Rebuild the state of the group's new primary."""
        self._primary_down_at.pop(group.shard_id, None)
        now = self.clock.now()
        server = group.server
        # Wire the promoted server exactly like the one it replaces.
        for target in self._purge_targets:
            server.register_purge_target(target)
        for query_key, query in self._registered_queries.items():
            prepared = server.prepare_shard_query(query, self._scatter_query(query))
            if prepared.admitted:
                prepared.commit()
            else:
                prepared.abort()
            # Fail-stale: whatever merged result caches still hold may
            # predate the promoted database; force revalidation.
            group.ebf.report_invalidation(query_key, now)
            self.counters.increment("failover_requeries")

    # -- statistics -----------------------------------------------------------------------

    def statistics(self) -> Dict[str, float]:
        """Cluster-wide aggregated statistics (see :func:`cluster_statistics`)."""
        return cluster_statistics(self)

    def __repr__(self) -> str:
        return (
            f"QuaestorCluster(num_shards={self.num_shards}, "
            f"replication_factor={self.replication.replication_factor})"
        )
