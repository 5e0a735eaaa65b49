"""The Monte Carlo simulator driving clients against a Quaestor deployment.

The simulator builds a complete deployment (document database, Quaestor
server, InvaliDB cluster, CDN, per-client browser caches), spawns a set of
simulated client instances each holding many asynchronous connections, and
advances a virtual clock through a discrete-event loop.  Setting
``SimulationConfig.num_shards`` above one replaces the single server with a
sharded :class:`~repro.cluster.QuaestorCluster` behind the
:class:`~repro.cluster.ClusterClient` facade; each shard then acts as an
independent origin with its own capacity.  Every operation's
latency is derived from the cache level that answered it; throughput emerges
from connection counts, latencies and two explicit capacity limits (client
instances and the origin), matching the saturation behaviour of the paper's
EC2 experiments.  A staleness auditor checks every read against the globally
ordered write history, giving the Delta-atomicity measurements of Figure 10.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.bloom.bloom_filter import _probe_memo
from repro.bloom.hashing import _blake2_pair_cached
from repro.caching.invalidation import InvalidationCache
from repro.clock import VirtualClock
from repro.client.sdk import DEGRADED_LEVEL, ERROR_LEVEL, QuaestorClient
from repro.core.config import QuaestorConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.server import QuaestorServer
from repro.db.database import Database
from repro.db.query import RECORD_KEYS
from repro.errors import ConfigurationError
from repro.invalidb.cluster import InvaliDBCluster
from repro.metrics.counters import Counter
from repro.metrics.histogram import Histogram
from repro.resilience import ResilienceConfig
from repro.rest.etags import etag_for_version
from repro.simulation.aggregate import RunAggregate
from repro.simulation.event_queue import EventQueue
from repro.simulation.latency import NetworkTopology
from repro.simulation.pricing import Pricer
from repro.simulation.staleness import StalenessAuditor
from repro.workloads.dataset import Dataset, DatasetSpec, generate_dataset
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.workloads.operations import Operation, OperationType

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.cluster import QuaestorCluster
    from repro.faults.plan import FaultPlan
    from repro.obs import MetricsRegistry, ObservabilityConfig, TraceRecorder
    from repro.verify.history import HistoryRecorder

#: Requests per second one client instance can issue (client-tier limit).
CLIENT_INSTANCE_CAPACITY = 15_000.0

#: History text of each operation type (``.value`` is a property call).
_OPERATION_NAMES = {kind: kind.value for kind in OperationType}
_READ = OperationType.READ
_QUERY = OperationType.QUERY
_UPDATE = OperationType.UPDATE
_INSERT = OperationType.INSERT
_DELETE = OperationType.DELETE


def require_count(name: str, value) -> None:
    """Reject ``value`` unless it is a positive ``int`` (``bool`` excluded:
    ``True`` would pass as a count of one; NaN, infinities and fractions are
    not ``int``)."""
    if not (isinstance(value, int) and not isinstance(value, bool) and value > 0):
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")


class CachingMode(str, enum.Enum):
    """The four system configurations compared throughout Section 6.2."""

    #: Full system: client caches + CDN + Expiring Bloom Filter.
    QUAESTOR = "quaestor"
    #: EBF-governed client caches only (no CDN).
    EBF_ONLY = "ebf-only"
    #: CDN with InvaliDB purges, but no client caches and no EBF.
    CDN_ONLY = "cdn-only"
    #: No web caching at all (the Orestes-style uncached baseline).
    UNCACHED = "uncached"

    @property
    def uses_cdn(self) -> bool:
        return self in (CachingMode.QUAESTOR, CachingMode.CDN_ONLY)

    @property
    def uses_client_cache(self) -> bool:
        return self in (CachingMode.QUAESTOR, CachingMode.EBF_ONLY)

    @property
    def uses_ebf(self) -> bool:
        return self in (CachingMode.QUAESTOR, CachingMode.EBF_ONLY)


@dataclass
class SimulationConfig:
    """Everything needed to run one simulated experiment."""

    mode: CachingMode = CachingMode.QUAESTOR
    workload: WorkloadSpec = field(default_factory=WorkloadSpec.read_heavy)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    num_clients: int = 10
    connections_per_client: int = 300
    ebf_refresh_interval: float = 1.0
    matching_nodes: int = 8
    duration: float = 30.0
    #: Fraction of ``max_operations`` executed before measurement starts, so
    #: that caches have warmed up regardless of the achieved throughput.
    warmup_fraction: float = 0.2
    max_operations: int = 20_000
    seed: int = 42
    topology: NetworkTopology = field(default_factory=NetworkTopology)
    #: The Quaestor server config, TTL estimator choice included.
    #: ``CachingMode.UNCACHED`` runs it with ``caching`` switched off and
    #: every other field as given.
    quaestor: QuaestorConfig = field(default_factory=QuaestorConfig)
    #: Requests per second the origin (DBaaS + database) can absorb.  In a
    #: sharded deployment this is *per shard*: every shard is an independent
    #: origin server with its own capacity.
    origin_capacity: float = 15_000.0
    #: Number of Quaestor shards.  ``1`` deploys the classic single server;
    #: values above one deploy a :class:`~repro.cluster.QuaestorCluster`
    #: behind the :class:`~repro.cluster.ClusterClient` facade.
    num_shards: int = 1
    audit_staleness: bool = True
    #: Copies of every shard (primary included).  Values above one wrap each
    #: shard in a :class:`~repro.replication.ReplicaGroup`: replica reads for
    #: Delta-atomic/causal sessions scale the origin out, and the shard
    #: survives a primary crash by promoting its freshest replica.  ``1``
    #: keeps the replication layer a strict no-op (seeded results are
    #: value-identical to a deployment without it).
    replication_factor: int = 1
    #: Optional seeded failure schedule (:class:`repro.faults.FaultPlan`);
    #: its crash/recover and gray-failure events are injected into the event
    #: queue so any scenario replays deterministically under failures.
    fault_plan: Optional["FaultPlan"] = None
    #: Seconds between a primary crash and the promotion of a replica
    #: (failure detection + election).
    failover_detection_delay: float = 0.5
    #: Optional resilience layer (:class:`repro.resilience.ResilienceConfig`):
    #: per-shard/per-replica circuit breakers, deadline-bounded retries with
    #: seeded jittered backoff, hedged origin reads and stale-if-error
    #: degraded serving.  ``None`` (and a disabled config) keeps every hot
    #: path byte-identical to a run from before the resilience layer.
    resilience: Optional[ResilienceConfig] = None
    #: Default session consistency for every simulated client.  ``None``
    #: keeps the SDK default (Δ-atomic); the consistency-verification
    #: scenario matrix sweeps this knob.
    consistency: Optional[ConsistencyLevel] = None
    #: Record a complete operation/install history for offline consistency
    #: checking (:mod:`repro.verify`).  Recording observes every operation
    #: but never influences a simulated decision or RNG draw, so seeded
    #: results are identical with it on or off.
    record_history: bool = False
    #: Observability layer (:class:`repro.obs.ObservabilityConfig`): request
    #: spans on the virtual clock plus a labeled metrics registry with
    #: sim-time series.  Like ``record_history``, recording observes every
    #: operation but draws no RNG and only reads the clock, so seeded
    #: results are identical with it on or off.  ``None`` (the default)
    #: keeps every hot path instrumentation-free.
    observability: Optional["ObservabilityConfig"] = None

    def __post_init__(self) -> None:
        # Comparisons are written so that NaN fails them: ``not x > 0``
        # rejects NaN where ``x <= 0`` would let it through.  ``+inf`` stays
        # a valid capacity and duration (unbounded).
        for name in (
            "num_clients", "connections_per_client", "num_shards", "replication_factor",
            "matching_nodes", "max_operations",
        ):
            require_count(name, getattr(self, name))
        if not 0.0 <= self.failover_detection_delay < math.inf:
            raise ConfigurationError("failover_detection_delay must be non-negative and finite")
        if not self.duration > 0:
            raise ConfigurationError("duration must be positive")
        if not (self.ebf_refresh_interval > 0 and math.isfinite(self.ebf_refresh_interval)):
            raise ConfigurationError("ebf_refresh_interval must be positive and finite")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError("warmup_fraction must lie in [0, 1)")
        if not self.origin_capacity > 0:
            raise ConfigurationError("origin_capacity must be positive")
        if self.consistency is not None and not isinstance(self.consistency, ConsistencyLevel):
            raise ConfigurationError("consistency must be a ConsistencyLevel")
        if self.observability is not None:
            from repro.obs import ObservabilityConfig

            if not isinstance(self.observability, ObservabilityConfig):
                raise ConfigurationError("observability must be an ObservabilityConfig")

    @property
    def total_connections(self) -> int:
        return self.num_clients * self.connections_per_client


@dataclass
class SimulationResult:
    """Aggregated outcome of one simulation run.

    Its rates, counts and throughput are views over :attr:`aggregate`, the
    raw sums and counts every summary is derived from.
    """

    mode: CachingMode
    connections: int
    read_latency: Histogram
    query_latency: Histogram
    write_latency: Histogram
    server_statistics: Dict[str, float]
    aggregate: RunAggregate
    #: Whether a CDN answered any lookup: CDN staleness is reported only then.
    cdn_used: bool

    measured_duration = property(lambda self: self.aggregate.measured_duration)
    operations = property(lambda self: self.aggregate.measured_operations)
    throughput = property(lambda self: self.aggregate.throughput)
    level_counts = property(lambda self: self.aggregate.level_counts)
    client_query_hit_rate = property(lambda self: self.aggregate.hit_rate("query", "client"))
    client_read_hit_rate = property(lambda self: self.aggregate.hit_rate("read", "client"))
    cdn_query_hit_rate = property(lambda self: self.aggregate.hit_rate("query", "cdn"))
    cdn_read_hit_rate = property(lambda self: self.aggregate.hit_rate("read", "cdn"))
    query_stale_rate = property(lambda self: self.aggregate.stale_rate("query"))
    read_stale_rate = property(lambda self: self.aggregate.stale_rate("read"))

    @property
    def cdn_stale_rate(self) -> float:
        """Upper bound on CDN-served staleness: hits that a purge would have
        removed but for the invalidation delay are not tracked one by one,
        so this is the auditor's query rate whenever the CDN was used."""
        return self.aggregate.stale_rate("query") if self.cdn_used else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat summary used by the benchmark reports (:meth:`RunAggregate.summary`)."""
        return self.aggregate.summary()

    @property
    def replication(self) -> Optional[Dict[str, float]]:
        """The availability metrics a replicated or fault-injected run adds to
        its summary; ``None`` for a plain run."""
        if not self.aggregate.replication_active:
            return None
        plain = RunAggregate().summary()
        return {key: value for key, value in self.summary().items() if key not in plain}


class Simulator:
    """Builds a deployment from a :class:`SimulationConfig` and runs it."""

    def __init__(self, config: SimulationConfig, dataset: Optional[Dataset] = None) -> None:
        self.config = config
        self.clock = VirtualClock()
        self.events = EventQueue()
        self.rng = random.Random(config.seed)
        config.topology.reseed(config.seed)
        # The record-key, record-tag and Bloom hash memos are the run's own:
        # keys, tags and probes of an earlier run's records would only keep
        # its memory alive.
        RECORD_KEYS.clear()
        etag_for_version.cache_clear()
        _probe_memo.cache_clear()
        _blake2_pair_cached.cache_clear()

        # --- substrate + Quaestor deployment (single server or sharded fleet). ---
        self.dataset = dataset if dataset is not None else generate_dataset(config.dataset)
        quaestor_config = config.quaestor
        if config.mode is CachingMode.UNCACHED:
            quaestor_config = replace(quaestor_config, caching=False)
        #: Offline-verification history: installs enter it through the
        #: auditor, operations through this simulator.  ``None`` (the
        #: default) keeps every path recording-free.
        self.history: Optional["HistoryRecorder"] = None
        if config.record_history:
            from repro.verify.history import HistoryRecorder

            self.history = HistoryRecorder()
        self.auditor = StalenessAuditor(recorder=self.history)
        #: Observability: the trace recorder shared by every layer of the
        #: deployment.  ``None`` (the default) keeps the request path
        #: instrumentation-free beyond one ``is None`` check per site; when
        #: on, recording draws no RNG and only reads the clock, so seeded
        #: results are value-identical either way.
        self.tracer: Optional["TraceRecorder"] = None
        if config.observability is not None and config.observability.trace:
            from repro.obs import TraceRecorder

            self.tracer = TraceRecorder(self.clock, sample_every=config.observability.sample_every)
        #: Replication is "active" when it can change behaviour at all: a
        #: replication factor above one, or faults to inject.  Only then does
        #: the summary grow availability metrics.
        self._replication_active = (
            config.replication_factor > 1 or config.fault_plan is not None
        )
        #: The pricer's per-level samplers when the loop prices reads inline
        #: (a single server without a tracer); ``None``: the pricer prices.
        self._read_pricers: Optional[Dict[str, object]] = None
        self._pricer = pricer = self._build_deployment(quaestor_config)

        self.cdn: Optional[InvalidationCache] = None
        if config.mode.uses_cdn:
            self.cdn = InvalidationCache("cdn", self.clock)
            self.server.register_purge_target(self._delayed_purge)

        # --- clients: one SDK instance per client machine, many connections each. ---
        self.clients: List[QuaestorClient] = []
        client_kwargs = {}
        if config.consistency is not None:
            client_kwargs["consistency"] = config.consistency
        for index in range(config.num_clients):
            client = QuaestorClient(
                self.server,
                cdn=self.cdn,
                clock=self.clock,
                refresh_interval=config.ebf_refresh_interval,
                use_client_cache=config.mode.uses_client_cache,
                use_ebf=config.mode.uses_ebf,
                name=f"client-{index}",
                resilience=config.resilience,
                tracer=self.tracer,
                **client_kwargs,
            )
            if config.mode.uses_ebf:
                client.connect()
            self.clients.append(client)

        self.workload = WorkloadGenerator(config.workload, self.dataset)
        # Operations are pulled from the generator in chunks (YCSB-style
        # batched sampling); the buffer holds the sampled-ahead tail.  The
        # generator's RNG streams are private to it, so sampling ahead of the
        # event loop cannot perturb any other random draw.
        self._op_buffer: List[Operation] = []
        self._op_cursor = 0
        self._op_chunk = min(512, config.max_operations)

        # --- capacity limits: token spacing per client instance; the
        # pricer spaces requests at each origin node. ---
        self._client_next_slot = [0.0] * config.num_clients
        self._client_issue_interval = 1.0 / CLIENT_INSTANCE_CAPACITY
        # One prebound event action per client instance: every connection of
        # a client reschedules the same callable.
        self._client_actions = [
            partial(self._execute_operation, index) for index in range(config.num_clients)
        ]
        self._fixed_prices = pricer.fixed_prices
        self._rtt_sample = pricer.rtt
        self._processing_sample = pricer.processing
        self._origin_wait = pricer.origin_wait
        self._price_read = pricer.read
        self._price_write = pricer.write

        # --- metrics. ---
        self._latency_by_class = {op: Histogram(op) for op in ("read", "query", "write")}
        self.level_counts: Dict[str, Counter] = {op: Counter() for op in self._latency_by_class}
        self._stale_counts = Counter()
        #: The measured-op tail, bound once per op class (latency sink, level
        #: counts, audited / stale counter keys), and the auditor (``None``: off).
        self._op_tails = {
            op: (sink.appender(), self.level_counts[op].counts, f"audited_{op}", f"stale_{op}")
            for op, sink in self._latency_by_class.items()
        }
        self._audit = self.auditor.audit_read if config.audit_staleness else None
        #: How long each stale measured read had been superseded, in audit order.
        self._staleness_samples: List[float] = []
        #: The metrics registry, a view over the counters above (and the
        #: fleet's), and the next sim-time epoch boundary at which it
        #: snapshots its time series.  Sampling is lazy -- piggybacked on
        #: operation execution, never scheduled into the event queue, which
        #: would advance the clock past the last workload event and change
        #: the measured duration -- and is all the registry adds to an op.
        self._next_metrics_sample: Optional[float] = None
        self.metrics_registry: Optional["MetricsRegistry"] = None
        if config.observability is not None and config.observability.metrics:
            from repro.obs import MetricsRegistry

            self.metrics_registry = MetricsRegistry(
                self._metric_rows, interval=config.observability.metrics_interval
            )
            self._next_metrics_sample = self.metrics_registry.interval
        self._measured_operations = 0
        self._total_operations = 0
        self._warmup_operations = int(config.warmup_fraction * config.max_operations)
        self._measure_start_time: Optional[float] = None

    def _build_deployment(self, quaestor_config: QuaestorConfig) -> Pricer:
        """Build the single server or the sharded fleet; return its pricer.

        In a fleet the cluster facade stands in for the single server
        everywhere, and the fleet pricer is the only reader of cluster state.
        A fault plan's events enter the workload's event queue, so failures
        interleave with requests deterministically for a fixed seed.
        """
        config = self.config
        self.cluster: Optional["QuaestorCluster"] = None
        self.database: Optional[Database] = None
        self.fault_injector = None
        if config.num_shards == 1 and not self._replication_active:
            # Database pre-loaded before the server subscribes.
            self.database = Database(clock=self.clock)
            self.dataset.load_into(self.database)
            self.server = QuaestorServer(
                self.database,
                config=quaestor_config,
                invalidb=InvaliDBCluster(matching_nodes=config.matching_nodes),
                auditor=self.auditor,
            )
            self.server.tracer = self.tracer
            self._deployment_rows = tuple
            pricer = Pricer(config.topology, self.clock, config.origin_capacity, self.tracer)
            if self.tracer is None:
                self._read_pricers = pricer.samplers
            return pricer

        from repro.cluster import ClusterClient
        from repro.cluster.metrics import metric_rows
        from repro.simulation.fleet import FleetPricer, build_cluster

        self.cluster = build_cluster(
            config, quaestor_config, self.clock, self.auditor, self.dataset, self.tracer
        )
        self.server = ClusterClient(self.cluster)
        self._deployment_rows = partial(metric_rows, self.cluster)
        if config.fault_plan is not None:
            from repro.faults import FaultInjector

            self.fault_injector = FaultInjector(
                self.cluster,
                self.events,
                self.clock,
                config.fault_plan,
                detection_delay=config.failover_detection_delay,
            )
            self.fault_injector.arm()
        return FleetPricer(
            self.cluster, config.topology, self.clock, config.origin_capacity, self.tracer
        )

    # -- purge path -------------------------------------------------------------------------

    def _delayed_purge(self, key: str) -> None:
        """Purge the CDN after the configured invalidation delay."""
        delay = self.config.topology.invalidation_delay.sample()
        self.events.push(self.clock.now() + delay, partial(self.cdn.purge, key))

    # -- main loop ----------------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run the simulation to completion and return aggregated results."""
        # One start-up event per simulated connection, bulk-loaded (start
        # times drawn client-major, which fixes sequences and tie-breaking).
        uniform = self.rng.uniform
        self.events.schedule_many(
            (
                (uniform(0.0, 0.01), action)
                for action in self._client_actions
                for _ in range(self.config.connections_per_client)
            )
        )
        # Main loop: a single heap inspection per iteration (pop_if_before),
        # with the loop-invariant lookups hoisted out.  The clock only ever
        # advances to executed events, never to the stop time itself.
        pop_if_before = self.events.pop_if_before
        advance_to = self.clock.advance_to
        stop_time = self.config.duration
        max_operations = self.config.max_operations
        while self._total_operations < max_operations:
            entry = pop_if_before(stop_time)
            if entry is None:
                break
            advance_to(entry[0])
            entry[2]()
        if self.metrics_registry is not None:
            # Closing snapshot at the (deterministic) stop time so the
            # series always covers the whole run.
            self.metrics_registry.sample(self.clock.now())
        return self._collect_results()

    @property
    def total_operations(self) -> int:
        """Operations executed so far, warm-up included (benchmark surface)."""
        return self._total_operations

    def stale_counts(self) -> Dict[str, int]:
        """Measured-window staleness audit counters (benchmark surface)."""
        return self._stale_counts.as_dict()

    def history_events(self) -> Tuple:
        """The recorded consistency history (empty unless ``record_history``)."""
        if self.history is None:
            return ()
        return self.history.events()

    def trace_spans(self) -> Tuple:
        """The recorded request spans (empty unless tracing is on)."""
        if self.tracer is None:
            return ()
        return self.tracer.spans()

    def trace_tuples(self) -> Tuple[tuple, ...]:
        """Flat picklable span rows (export surface)."""
        if self.tracer is None:
            return ()
        return self.tracer.span_tuples()

    def _metric_rows(self) -> List[tuple]:
        """The registry's rows: the measured counters, then the deployment's."""
        stale = self._stale_counts.counts
        rows = [
            ("sim_operations_total", (("level", level), ("op", op)), count)
            for op, counter in self.level_counts.items()
            for level, count in counter.counts.items()
        ]
        for op, histogram in self._latency_by_class.items():
            rows.append(("sim_stale_reads_total", (("op", op),), stale.get(f"stale_{op}", 0)))
            rows.append(("sim_request_latency_seconds", (("op", op),), histogram))
        rows.extend(self._deployment_rows())
        return rows

    def metrics_state(self) -> Optional[tuple]:
        """The metrics registry state (export surface), or ``None``."""
        if self.metrics_registry is None:
            return None
        return self.metrics_registry.state()

    # -- per-connection behaviour -------------------------------------------------------------

    def _execute_operation(self, client_index: int) -> None:
        client = self.clients[client_index]
        # Next operation off the sampled-ahead buffer; refilled through the
        # generator's chunked batch API.
        cursor = self._op_cursor
        try:
            operation = self._op_buffer[cursor]
        except IndexError:
            self._op_buffer = self.workload.next_operations(self._op_chunk)
            cursor = 0
            operation = self._op_buffer[0]
        self._op_cursor = cursor + 1
        start_time = self.clock.now()
        # Queueing delay at the client instance (its request-issue capacity).
        next_slot = self._client_next_slot[client_index]
        if next_slot > start_time:
            issue_wait = next_slot - start_time
            self._client_next_slot[client_index] = next_slot + self._client_issue_interval
        else:
            issue_wait = 0.0
            self._client_next_slot[client_index] = start_time + self._client_issue_interval

        operation_type = operation.type
        if operation_type is _READ or operation_type is _QUERY:
            if operation_type is _READ:
                op_class = "read"
                result = client.read(operation.collection, operation.document_id)
            else:
                op_class = "query"
                result = client.query(operation.query)
            level = result.level
            key = result.key
            etag = result.etag
            pricers = self._read_pricers
            if pricers is None or result.extra_levels:
                latency = self._price_read(level, key, result.extra_levels)
            elif level in self._fixed_prices:
                latency = self._fixed_prices[level]
            elif level == "origin":
                # Round trip + processing + the queue wait on token 0, as
                # the pricer charges it (a zero wait adds 0.0).
                latency = self._rtt_sample() + self._processing_sample() + self._origin_wait(0)
            else:
                latency = pricers[level]()
        else:
            # Writes always travel to the origin (the owning shard's
            # primary) and pay its capacity constraint.
            op_class = "write"
            etag = None
            if operation_type is _UPDATE:
                result = client.update(
                    operation.collection, operation.document_id, operation.payload
                )
            elif operation_type is _INSERT:
                result = client.insert(operation.collection, operation.payload)
            else:
                result = client.delete(operation.collection, operation.document_id)
            key = result.key
            level = result.level
            latency = self._price_write(level)
        if self.tracer is not None:
            # Price the completed root (its key and level came with the SDK's
            # ``end``, its cost children from the pricing sites): latency, op class.
            self.tracer.finish_root(start_time + latency, latency, "op", op_class)
        registry = self.metrics_registry
        if registry is not None:
            # Lazy epoch sampling: snapshot the time series at every grid
            # boundary this operation's start time has crossed (multiples of
            # the interval).
            while start_time >= self._next_metrics_sample:
                registry.sample(self._next_metrics_sample)
                self._next_metrics_sample += registry.interval

        # Client-side queueing delays the next request of this connection but
        # is not part of the per-request latency the paper reports.
        completion = start_time + issue_wait + latency
        total = self._total_operations + 1
        self._total_operations = total
        if self._measure_start_time is None and total > self._warmup_operations:
            self._measure_start_time = start_time
        measured = self._measure_start_time is not None
        if measured:
            self._measured_operations += 1
            record, levels, audited, stale = self._op_tails[op_class]
            record(latency)
            levels[level] += 1
            audit = self._audit
            if audit is not None and etag is not None:  # writes carry no etag
                staleness = audit(key, etag, start_time)
                stale_counts = self._stale_counts.counts
                if staleness is not None:
                    stale_counts[stale] += 1
                    self._staleness_samples.append(staleness)
                if level == DEGRADED_LEVEL:
                    stale_counts["degraded_served"] += 1
                stale_counts[audited] += 1

        if self.history is not None:
            hedged, retried, fast_failed = self._pricer.markers
            version = result.version
            if operation_type is _DELETE and level != ERROR_LEVEL:
                version = -1  # tombstone: acknowledged deletes carry no body
            self.history.record_operation(
                session=client.name,
                op=_OPERATION_NAMES[operation_type],
                key=key,
                invoked=start_time,
                completed=completion,
                etag=etag,
                version=version,
                level=level,
                frontier=client.causal_frontier,
                degraded=(level == DEGRADED_LEVEL or result.degraded),
                hedged=hedged,
                retried=retried,
                fast_failed=fast_failed,
            )

        self.events.push(completion, self._client_actions[client_index])

    # -- result aggregation -------------------------------------------------------------------------

    def _collect_results(self) -> SimulationResult:
        end_time = self.clock.now()
        start_time = self._measure_start_time if self._measure_start_time is not None else end_time
        measured_duration = max(1e-9, end_time - start_time)
        statistics = self.server.statistics()
        staleness = self._staleness_samples
        injector = self.fault_injector
        resilience: Dict[str, int] = {}
        if self.config.resilience is not None:
            resilience = {
                "resilience_retries": sum(
                    statistics.get(f"cluster_{kind}_retries", 0)
                    for kind in ("read", "query", "write")
                ),
                "resilience_retry_successes": sum(
                    statistics.get(f"cluster_{kind}_retry_successes", 0)
                    for kind in ("read", "query", "write")
                ),
                "breaker_fast_fails": statistics.get("cluster_breaker_fast_fails", 0),
                "stale_if_error_serves": sum(
                    client.counters.get("stale_if_error_serves") for client in self.clients
                ),
                "hedged_reads": self._pricer.hedged_reads,
                "hedge_wins": self._pricer.hedge_wins,
            }
        aggregate = RunAggregate(
            measured_operations=self._measured_operations,
            measured_duration=measured_duration,
            throughput=self._measured_operations / measured_duration,
            latency={
                name: (float(sum(histogram.samples())), histogram.count)
                for name, histogram in self._latency_by_class.items()
            },
            level_counts={name: counter.as_dict() for name, counter in self.level_counts.items()},
            stale_counts=self.stale_counts(),
            staleness_sum=float(sum(staleness)),
            staleness_count=len(staleness),
            max_staleness=max(staleness, default=0.0),
            replica_reads=statistics.get("replication_replica_reads", 0),
            primary_reads=statistics.get("replication_primary_reads", 0),
            failovers=statistics.get("cluster_failovers", 0),
            faults_fired=injector.faults_fired if injector is not None else 0,
            recovery_times=tuple(injector.recovery_times()) if injector is not None else (),
            resilience=resilience,
            replication_active=self._replication_active,
            has_fault_injector=injector is not None,
            has_resilience=self.config.resilience is not None,
        )
        latency = self._latency_by_class
        return SimulationResult(
            mode=self.config.mode,
            connections=self.config.total_connections,
            read_latency=latency["read"],
            query_latency=latency["query"],
            write_latency=latency["write"],
            server_statistics=statistics,
            aggregate=aggregate,
            cdn_used=self.cdn is not None and bool(self.cdn.stats.lookups),
        )
