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

from repro.caching.invalidation import InvalidationCache
from repro.clock import VirtualClock
from repro.client.sdk import DEGRADED_LEVEL, ERROR_LEVEL, QuaestorClient, SESSION_LEVEL
from repro.core.config import QuaestorConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.server import QuaestorServer
from repro.db.database import Database
from repro.errors import ConfigurationError
from repro.invalidb.cluster import InvaliDBCluster
from repro.metrics.counters import Counter
from repro.metrics.histogram import Histogram
from repro.resilience import ResilienceConfig
from repro.simulation.aggregate import RunAggregate
from repro.simulation.event_queue import EventQueue
from repro.simulation.latency import NetworkTopology
from repro.simulation.staleness import StalenessAuditor
from repro.ttl.spec import TTLEstimatorSpec
from repro.workloads.dataset import Dataset, DatasetSpec, generate_dataset
from repro.workloads.generator import PhasedWorkloadGenerator, WorkloadGenerator, WorkloadSpec
from repro.workloads.operations import Operation, OperationType

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.plan import FaultPlan
    from repro.obs import MetricsRegistry, ObservabilityConfig, TraceRecorder
    from repro.verify.history import HistoryRecorder

#: Cost-span name of a read served at each cache level.
_NET_STAGE = {"client": "net.client", "cdn": "net.cdn", "origin": "net.origin"}
#: History text of each operation type (``.value`` is a property call).
_OPERATION_NAMES = {kind: kind.value for kind in OperationType}
_READ = OperationType.READ
_QUERY = OperationType.QUERY


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
    quaestor: QuaestorConfig = field(default_factory=QuaestorConfig)
    #: Requests per second one client instance can issue (client-tier limit).
    client_instance_capacity: float = 15_000.0
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
    #: its crash/recover/partition events are injected into the event queue
    #: so any scenario replays deterministically under failures.
    fault_plan: Optional["FaultPlan"] = None
    #: Seconds between a primary crash and the promotion of a replica
    #: (failure detection + election).
    failover_detection_delay: float = 0.5
    #: Select a TTL estimator by name (:mod:`repro.ttl.spec` registry).  When
    #: set, it overrides ``quaestor.ttl_estimator`` -- including for modes
    #: that replace the Quaestor config (e.g. ``UNCACHED``) -- so a sweep can
    #: swap estimators without touching the rest of the server config.
    ttl_estimator: Optional[TTLEstimatorSpec] = None
    #: Non-stationary workloads: ``(operations, spec)`` phases concatenated
    #: by a :class:`~repro.workloads.PhasedWorkloadGenerator` (the final
    #: phase is open-ended).  ``None`` keeps the single stationary
    #: ``workload`` spec.  The TTL bake-off's drifting and bursty write
    #: processes are built from this.
    workload_phases: Optional[Tuple[Tuple[int, WorkloadSpec], ...]] = None
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
        if self.num_clients <= 0 or self.connections_per_client <= 0:
            raise ConfigurationError("client and connection counts must be positive")
        if self.num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        if self.replication_factor < 1:
            raise ConfigurationError("replication_factor must be at least 1")
        if self.failover_detection_delay < 0:
            raise ConfigurationError("failover_detection_delay must be non-negative")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if not (self.ebf_refresh_interval > 0 and math.isfinite(self.ebf_refresh_interval)):
            raise ConfigurationError("ebf_refresh_interval must be positive and finite")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError("warmup_fraction must lie in [0, 1)")
        if self.max_operations <= 0:
            raise ConfigurationError("max_operations must be positive")
        if self.client_instance_capacity <= 0 or self.origin_capacity <= 0:
            raise ConfigurationError("capacities must be positive")
        if self.ttl_estimator is not None and not isinstance(
            self.ttl_estimator, TTLEstimatorSpec
        ):
            raise ConfigurationError("ttl_estimator must be a TTLEstimatorSpec")
        if self.consistency is not None and not isinstance(self.consistency, ConsistencyLevel):
            raise ConfigurationError("consistency must be a ConsistencyLevel")
        if self.observability is not None:
            from repro.obs import ObservabilityConfig

            if not isinstance(self.observability, ObservabilityConfig):
                raise ConfigurationError("observability must be an ObservabilityConfig")
        if self.workload_phases is not None:
            if not self.workload_phases:
                raise ConfigurationError("workload_phases must contain at least one phase")
            for operations, _spec in self.workload_phases:
                if operations <= 0:
                    raise ConfigurationError("every workload phase budget must be positive")

    @property
    def total_connections(self) -> int:
        return self.num_clients * self.connections_per_client


@dataclass
class SimulationResult:
    """Aggregated outcome of one simulation run."""

    mode: CachingMode
    connections: int
    measured_duration: float
    operations: int
    throughput: float
    read_latency: Histogram
    query_latency: Histogram
    write_latency: Histogram
    level_counts: Dict[str, Dict[str, int]]
    client_query_hit_rate: float
    client_read_hit_rate: float
    cdn_query_hit_rate: float
    cdn_read_hit_rate: float
    query_stale_rate: float
    read_stale_rate: float
    cdn_stale_rate: float
    server_statistics: Dict[str, float]
    #: The raw sums and counts every rate above was derived from; the
    #: partitioned engine folds these (:meth:`RunAggregate.merge`).
    aggregate: RunAggregate

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

        # --- substrate + Quaestor deployment (single server or sharded fleet). ---
        self.dataset = dataset if dataset is not None else generate_dataset(config.dataset)
        quaestor_config = config.quaestor
        if config.mode is CachingMode.UNCACHED:
            quaestor_config = QuaestorConfig.uncached()
        if config.ttl_estimator is not None:
            # Applied after any mode substitution so the knob always wins.
            quaestor_config = replace(quaestor_config, ttl_estimator=config.ttl_estimator)
        #: Offline-verification history: installs enter it through the
        #: auditor, operations through this simulator.  ``None`` (the
        #: default) keeps every path recording-free.
        self.history: Optional["HistoryRecorder"] = None
        if config.record_history:
            from repro.verify.history import HistoryRecorder

            self.history = HistoryRecorder()
        self.auditor = StalenessAuditor(recorder=self.history)
        #: Observability: the trace recorder and metrics registry shared by
        #: every layer of the deployment.  ``None`` (the default) keeps the
        #: request path instrumentation-free beyond one ``is None`` check
        #: per site; when on, recording draws no RNG and only reads the
        #: clock, so seeded results are value-identical either way.
        self.tracer: Optional["TraceRecorder"] = None
        self.metrics_registry: Optional["MetricsRegistry"] = None
        if config.observability is not None:
            from repro.obs import MetricsRegistry, TraceRecorder

            if config.observability.trace:
                self.tracer = TraceRecorder(
                    self.clock, sample_every=config.observability.sample_every
                )
            if config.observability.metrics:
                self.metrics_registry = MetricsRegistry(
                    interval=config.observability.metrics_interval
                )
        #: Replication is "active" when it can change behaviour at all: a
        #: replication factor above one, or faults to inject.  Only then does
        #: the summary grow availability metrics.
        self._replication_active = (
            config.replication_factor > 1 or config.fault_plan is not None
        )
        if config.num_shards > 1 or self._replication_active:
            # Sharded (or replicated) deployment: the dataset is routed into
            # per-shard databases before the shard servers subscribe, and the
            # cluster facade stands in for the single server everywhere below.
            from repro.cluster import ClusterClient, QuaestorCluster

            replication = None
            if self._replication_active:
                from repro.replication import ReplicationConfig

                # The lag stream was reseeded (with every other topology
                # model) in reseed() above, so replicated runs are exactly
                # as reproducible as plain ones.
                replication = ReplicationConfig(
                    replication_factor=config.replication_factor,
                    lag=config.topology.replication_lag,
                    failover_detection_delay=config.failover_detection_delay,
                )
            self.cluster: Optional[QuaestorCluster] = QuaestorCluster(
                num_shards=config.num_shards,
                clock=self.clock,
                config=quaestor_config,
                matching_nodes=config.matching_nodes,
                auditor=self.auditor,
                dataset=self.dataset,
                replication=replication,
                resilience=config.resilience,
                gray_seed=config.seed,
                tracer=self.tracer,
                metrics=self.metrics_registry,
            )
            self.database: Optional[Database] = None
            self.server = ClusterClient(self.cluster)
        else:
            self.cluster = None
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

        #: Fault injection: the plan's crash/recover/partition events enter
        #: the same event queue as the workload, so failures interleave with
        #: requests deterministically for a fixed seed.
        self.fault_injector = None
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

        #: The cluster's resilience runtime, whose per-request trace is priced
        #: into latency; ``None`` on single servers and with the layer off.
        self._resilience_runtime = (
            self.cluster.resilience_runtime if self.cluster is not None else None
        )

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

        if config.workload_phases is not None:
            self.workload = PhasedWorkloadGenerator(config.workload_phases, self.dataset)
        else:
            self.workload = WorkloadGenerator(config.workload, self.dataset)
        # Operations are pulled from the generator in chunks (YCSB-style
        # batched sampling); the buffer holds the sampled-ahead tail.  The
        # generator's RNG streams are private to it, so sampling ahead of the
        # event loop cannot perturb any other random draw.
        self._op_buffer: List[Operation] = []
        self._op_cursor = 0
        self._op_chunk = min(512, config.max_operations)

        # --- capacity limits (token spacing per client instance and origin). ---
        # Every *node* is an independent origin server with its own capacity:
        # one slot per shard primary, plus one per replica when replication is
        # on (replica reads consume the replica's capacity -- that is the read
        # scale-out).  Slots are keyed by node id and created on first use;
        # the single-server deployment uses the one token ``0``.
        self._client_next_slot = [0.0] * config.num_clients
        self._client_issue_interval = 1.0 / config.client_instance_capacity
        # One prebound event action per client instance: every connection of
        # a client reschedules the same callable.
        self._client_actions = [
            partial(self._execute_operation, index) for index in range(config.num_clients)
        ]
        self._origin_next_slot: Dict[object, float] = {}
        self._origin_interval = 1.0 / config.origin_capacity
        self._extra_fetch_rr = 0
        #: Per-level read pricers of the cache levels, resolved once for a
        #: single server without a tracer (the origin is priced inline);
        #: otherwise ``None``: :meth:`_read_path_latency` prices.  A level
        #: whose latency has no jitter draws nothing: its price is a constant.
        self._read_pricers = None
        self._fixed_prices = {SESSION_LEVEL: 0.0}  # session state: no network
        if self.cluster is None and self.tracer is None:
            topology = config.topology
            self._rtt_sample = topology.origin_round_trip.sample
            self._processing_sample = topology.server_processing.sample
            self._read_pricers = {ERROR_LEVEL: self._rtt_sample, DEGRADED_LEVEL: self._rtt_sample}
            for level, model in (("client", topology.client_cache_hit), ("cdn", topology.cdn_hit)):
                if model.jitter == 0.0:
                    self._fixed_prices[level] = model.sample()
                else:
                    self._read_pricers[level] = model.sample

        # --- metrics. ---
        self.read_latency = Histogram("read")
        self.query_latency = Histogram("query")
        self.write_latency = Histogram("write")
        self._latency_by_class = {
            "read": self.read_latency,
            "query": self.query_latency,
            "write": self.write_latency,
        }
        self.level_counts: Dict[str, Counter] = {
            "read": Counter(),
            "query": Counter(),
            "write": Counter(),
        }
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
        self._hedged_reads = 0
        self._hedge_wins = 0
        #: (hedged, retried, fast_failed) markers of the operation in flight,
        #: stashed by _drain_resilience for the history recorder.
        self._op_markers: Tuple[bool, bool, bool] = (False, False, False)
        #: Next sim-time epoch boundary at which the metrics registry
        #: snapshots its time series.  Sampling is lazy -- piggybacked on
        #: operation execution, never scheduled into the event queue, which
        #: would advance the clock past the last workload event and change
        #: the measured duration.
        self._next_metrics_sample: Optional[float] = None
        registry = self.metrics_registry
        if registry is not None:
            self._next_metrics_sample = registry.interval
            self._operation_counters = registry.counters("sim_operations_total", "op", "level")
            self._stale_read_counters = registry.counters("sim_stale_reads_total", "op")
            self._latency_samples = registry.histograms("sim_request_latency_seconds", "op")
        self._measured_operations = 0
        self._total_operations = 0
        self._warmup_operations = int(config.warmup_fraction * config.max_operations)
        self._measure_start_time: Optional[float] = None

    # -- purge path -------------------------------------------------------------------------

    def _delayed_purge(self, key: str) -> None:
        """Purge the CDN after the configured invalidation delay."""
        if self.cdn is None:
            return
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
            ),
            label="op",
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
        """Measured-window staleness audit counters (parallel-merge surface)."""
        return self._stale_counts.as_dict()

    def history_events(self) -> Tuple:
        """The recorded consistency history (empty unless ``record_history``)."""
        if self.history is None:
            return ()
        return self.history.events()

    def history_tuples(self) -> Tuple[tuple, ...]:
        """Flat picklable history rows (parallel-merge surface)."""
        if self.history is None:
            return ()
        return self.history.event_tuples()

    def trace_spans(self) -> Tuple:
        """The recorded request spans (empty unless tracing is on)."""
        if self.tracer is None:
            return ()
        return self.tracer.spans()

    def trace_tuples(self) -> Tuple[tuple, ...]:
        """Flat picklable span rows (parallel-merge surface)."""
        if self.tracer is None:
            return ()
        return self.tracer.span_tuples()

    def metrics_state(self) -> Optional[tuple]:
        """The metrics registry state (parallel-merge surface), or ``None``."""
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

        recording = self.history is not None
        if recording:
            self._op_markers = (False, False, False)
        registry = self.metrics_registry
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
            if pricers is None:
                latency = self._read_path_latency(level, key)
            elif level in self._fixed_prices:
                latency = self._fixed_prices[level]
            elif level == "origin":
                # Round trip + processing + the queue wait on token 0, as
                # _read_path_latency charges it (a zero wait adds 0.0).
                latency = self._rtt_sample() + self._processing_sample() + self._origin_wait(0)
            else:
                latency = pricers[level]()
            for extra_level in result.extra_levels:
                latency += self._read_path_latency(extra_level, None)
            runtime = self._resilience_runtime
            if runtime is not None and runtime.touched:
                latency = self._drain_resilience(latency, level)
        else:
            op_class = "write"
            etag = None
            latency, key, level, result = self._perform_write(client, operation)
        if self.tracer is not None:
            # Price the completed root (its key and level came with the SDK's
            # ``end``, its cost children from the pricing sites): latency, op class.
            self.tracer.finish_root(start_time + latency, latency, "op", op_class)
        if registry is not None:
            # Lazy epoch sampling: snapshot the time series at every grid
            # boundary this operation's start time has crossed.  The grid is
            # global (multiples of the interval), so per-partition series
            # line up exactly at merge time.
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
            if registry is not None:
                self._operation_counters[op_class, level].inc()
                self._latency_samples[op_class].append(latency)
            audit = self._audit
            if audit is not None and etag is not None:  # writes carry no etag
                staleness = audit(key, etag, start_time)
                stale_counts = self._stale_counts.counts
                if staleness is not None:
                    stale_counts[stale] += 1
                    self._staleness_samples.append(staleness)
                    if registry is not None:
                        self._stale_read_counters[op_class].inc()
                if level == DEGRADED_LEVEL:
                    stale_counts["degraded_served"] += 1
                stale_counts[audited] += 1

        if recording:
            hedged, retried, fast_failed = self._op_markers
            version = result.version
            if operation.type == OperationType.DELETE and level != ERROR_LEVEL:
                version = -1  # tombstone: acknowledged deletes carry no body
            self.history.record_operation(
                session=client.name,
                op=_OPERATION_NAMES[operation.type],
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

    def _perform_write(self, client: QuaestorClient, operation: Operation):
        """Execute one write: ``(latency, key, level, result)``.

        Writes always travel to the origin (the owning shard's primary) and
        pay its capacity constraint.
        """
        topology = self.config.topology
        operation_type = operation.type
        write_token = self._write_token(operation)
        if operation_type == OperationType.UPDATE:
            result = client.update(operation.collection, operation.document_id, operation.payload)
        elif operation_type == OperationType.INSERT:
            result = client.insert(operation.collection, operation.payload)
        else:
            result = client.delete(operation.collection, operation.document_id)
        tracer = self.tracer
        if result.level == ERROR_LEVEL:
            # The primary is down: the write failed after a wide-area round
            # trip and consumed no origin capacity.
            probe = topology.write_latency()
            if tracer is not None:
                tracer.cost("net.probe", probe)
            latency = self._drain_resilience(probe, ERROR_LEVEL)
            return latency, result.key, ERROR_LEVEL, result
        base = topology.write_latency()
        wait = self._origin_wait(write_token)
        if tracer is not None:
            tracer.cost("net.write", base)
            if wait > 0.0:
                tracer.cost("queue.origin", wait)
        latency = base + wait
        inflated = self._gray_write_latency(latency, operation)
        if tracer is not None and inflated != latency:
            tracer.cost("gray.slow", inflated - latency)
        latency = self._drain_resilience(inflated, "origin")
        return latency, result.key, "origin", result

    def _read_path_latency(self, level: str, key: Optional[str]) -> float:
        """Latency of a read/query answered at ``level`` plus origin queueing."""
        tracer = self.tracer
        if level == SESSION_LEVEL:
            if tracer is not None:
                tracer.cost("net.session", 0.0)
            return 0.0
        if level == ERROR_LEVEL or level == DEGRADED_LEVEL:
            # A failed request still pays the round trip that discovered the
            # outage, but no server processed it.  A stale-if-error serve
            # pays the same discovery round trip before falling back to the
            # expired cache entry.
            probe = self.config.topology.origin_round_trip.sample()
            if tracer is not None:
                tracer.cost("net.probe", probe)
            return probe
        latency = self.config.topology.read_latency(level)
        if tracer is not None:
            tracer.cost(_NET_STAGE[level], latency)
        if level == "origin":
            wait = self._origin_wait_for_key(key)
            if tracer is not None and wait > 0.0:
                tracer.cost("queue.origin", wait)
            latency += wait
            inflated = self._gray_origin_latency(latency, key)
            if tracer is not None and inflated != latency:
                tracer.cost("gray.slow", inflated - latency)
            latency = inflated
        return latency

    def _gray_origin_latency(self, latency: float, key: Optional[str]) -> float:
        """Inflate an origin-served latency by the serving node's gray slow
        factor, and price a hedged read when one would have fired.

        Inert (returns ``latency`` unchanged, zero RNG draws) unless a gray
        slow/flaky condition is currently active on the cluster, so seeded
        no-fault runs are untouched.  Record reads inflate by the factor of
        the node that actually served them and may hedge to the next serving
        replica; scatter queries complete when the slowest live primary
        answers, so the worst primary factor applies (hedging per-shard
        sub-queries is not modelled).
        """
        cluster = self.cluster
        if cluster is None or not cluster.gray.active:
            return latency
        gray = cluster.gray
        if key is not None and key.startswith("record:"):
            shard_id = cluster.router.shard_for_key(key)
            group = cluster.groups[shard_id]
            factor = gray.slow_factor(shard_id, group.last_served_node_id)
            if factor <= 1.0:
                return latency
            return self._maybe_hedge(latency * factor, group)
        factor = 1.0
        for group in cluster.groups:
            primary = group.primary_node
            if primary.alive:
                node_factor = gray.slow_factor(group.shard_id, primary.node_id)
                if node_factor > factor:
                    factor = node_factor
        return latency * factor if factor > 1.0 else latency

    def _maybe_hedge(self, latency: float, group) -> float:
        """Price a hedged read: a second copy to the next serving replica.

        The hedge fires after the policy's analytic p-quantile delay; the
        faster of the slowed original and ``delay + alternative replica's
        latency`` wins.  Only reached when a gray slow factor is inflating
        ``group``'s reads, so the extra latency-model draw cannot perturb
        clean runs.
        """
        runtime = self.cluster.resilience_runtime
        if runtime is None or runtime.config.hedge is None:
            return latency
        serving = group.serving_node_ids()
        if len(serving) < 2:
            return latency
        rtt = self.config.topology.origin_round_trip
        delay = runtime.config.hedge.delay(rtt)
        if latency <= delay:
            return latency
        try:
            index = serving.index(group.last_served_node_id)
        except ValueError:
            index = 0
        alt_node = serving[(index + 1) % len(serving)]
        alt_factor = self.cluster.gray.slow_factor(group.shard_id, alt_node)
        alt_latency = delay + self.config.topology.read_latency("origin") * alt_factor
        self._hedged_reads += 1
        runtime.trace.hedged = True
        if alt_latency < latency:
            self._hedge_wins += 1
            return alt_latency
        return latency

    def _gray_write_latency(self, latency: float, operation: Operation) -> float:
        """Inflate a write's latency by the owning primary's gray slow factor."""
        cluster = self.cluster
        if cluster is None or not cluster.gray.active:
            return latency
        shard_id = cluster.router.shard_for_operation(operation)
        group = cluster.groups[shard_id]
        factor = cluster.gray.slow_factor(shard_id, group.primary_node.node_id)
        return latency * factor if factor > 1.0 else latency

    def _drain_resilience(self, latency: float, level: str) -> float:
        """Convert the cluster's per-request resilience trace into latency.

        Each retry round trip pays a fresh origin round-trip sample, backoff
        waits are added verbatim, and a request the breaker rejected before
        any network attempt costs nothing at all (the fast-fail is the whole
        point of the breaker).  No-op -- zero draws, zero float ops -- when
        the trace is empty, which it always is on no-fault runs: a trace
        nothing touched is not even taken.
        """
        runtime = self._resilience_runtime
        if runtime is None or not runtime.touched:
            return latency
        trace = runtime.take_trace()
        if trace.empty:
            return latency
        if self.history is not None:
            self._op_markers = (
                trace.hedged,
                trace.extra_round_trips > 0,
                trace.fast_failed,
            )
        tracer = self.tracer
        if (
            trace.fast_failed
            and trace.extra_round_trips == 0
            and (level == ERROR_LEVEL or level == DEGRADED_LEVEL)
        ):
            if tracer is not None and latency != 0.0:
                # The breaker refused before any network attempt: the
                # discovery round trip priced above was never paid, so the
                # attribution carries the compensating negative component.
                tracer.cost("resilience.fast_fail", -latency)
            latency = 0.0
        latency += trace.backoff_s
        if tracer is not None:
            if trace.backoff_s:
                tracer.cost("resilience.backoff", trace.backoff_s)
            if trace.hedged:
                tracer.cost("resilience.hedge", 0.0)
        if trace.extra_round_trips:
            rtt = self.config.topology.origin_round_trip
            retry_cost = 0.0
            for _ in range(trace.extra_round_trips):
                step = rtt.sample()
                latency += step
                retry_cost += step
            if tracer is not None:
                tracer.cost("resilience.retry", retry_cost)
        return latency

    def _write_token(self, operation: Operation) -> object:
        """The origin node whose capacity a write consumes.

        Delegates to the router's operation placement so capacity accounting
        always matches where the cluster actually lands the write (inserts
        route by the payload's ``_id``); writes always hit the shard's
        *current* primary, including a freshly promoted one.
        """
        if self.cluster is None:
            return 0
        shard_id = self.cluster.router.shard_for_operation(operation)
        return self.cluster.groups[shard_id].primary_node.node_id

    def _origin_wait_for_key(self, key: Optional[str]) -> float:
        """Origin queueing for one request, routed by its cache key.

        Record keys queue at the node that actually served them (the shard's
        primary, or the replica the group's routing picked -- replica reads
        spreading over more nodes is exactly the read scale-out replication
        buys).  Query keys scatter over every live primary in parallel (the
        fan-out completes when the slowest shard answers, but each shard's
        capacity is consumed).  Per-record fetches assembling an id-list
        result carry no key here and are spread round-robin, which matches
        their uniform hash placement in expectation.
        """
        if self.cluster is None:
            return self._origin_wait(0)
        groups = self.cluster.groups
        if key is None:
            self._extra_fetch_rr += 1
            group = groups[self._extra_fetch_rr % self.config.num_shards]
            # Spread anonymous member fetches over the nodes the group's
            # read rotation actually uses (primary + live replicas), so
            # replica capacity is modelled for id-list workloads too.  The
            # node index divides the counter by the shard count so the two
            # rotations are decorrelated (with a shared factor, shard and
            # node index would otherwise lock step and starve some nodes).
            serving = group.serving_node_ids()
            node_index = (self._extra_fetch_rr // self.config.num_shards) % len(serving)
            return self._origin_wait(serving[node_index])
        if key.startswith("record:"):
            shard_id = self.cluster.router.shard_for_key(key)
            return self._origin_wait(groups[shard_id].last_served_node_id)
        waits = [
            self._origin_wait(group.primary_node.node_id)
            for group in groups
            if group.primary_node.alive
        ]
        return max(waits) if waits else 0.0

    def _origin_wait(self, token: object) -> float:
        """Queueing delay at one origin node: requests spaced by its capacity."""
        now = self.clock.now()
        slots = self._origin_next_slot
        slot = slots[token] if token in slots else 0.0
        if slot > now:
            slots[token] = slot + self._origin_interval
            return slot - now
        slots[token] = now + self._origin_interval
        return 0.0

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
                "hedged_reads": self._hedged_reads,
                "hedge_wins": self._hedge_wins,
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
        # Upper bound on CDN-served staleness: hits that would have been
        # purged were it not for the invalidation delay are not tracked
        # individually, so report the auditor's overall rate for reads that
        # came from the CDN-backed levels.
        cdn_active = self.cdn is not None and self.cdn.stats.lookups
        return SimulationResult(
            mode=self.config.mode,
            connections=self.config.total_connections,
            measured_duration=measured_duration,
            operations=self._measured_operations,
            throughput=aggregate.throughput,
            read_latency=self.read_latency,
            query_latency=self.query_latency,
            write_latency=self.write_latency,
            level_counts=aggregate.level_counts,
            client_query_hit_rate=aggregate.hit_rate("query", "client"),
            client_read_hit_rate=aggregate.hit_rate("read", "client"),
            cdn_query_hit_rate=aggregate.hit_rate("query", "cdn"),
            cdn_read_hit_rate=aggregate.hit_rate("read", "cdn"),
            query_stale_rate=aggregate.stale_rate("query"),
            read_stale_rate=aggregate.stale_rate("read"),
            cdn_stale_rate=aggregate.stale_rate("query") if cdn_active else 0.0,
            server_statistics=statistics,
            aggregate=aggregate,
        )


def run_simulation(config: SimulationConfig, dataset: Optional[Dataset] = None) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(config, dataset=dataset).run()
