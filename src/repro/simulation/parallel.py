"""Process-parallel simulation: shard-partitioned jobs, deterministic merge.

The single-process :class:`~repro.simulation.Simulator` executes every
shard's events on one core.  This module spreads a run over worker
*processes* while keeping seeded results byte-for-byte reproducible:

**The partitioned model.**  A simulation with ``S`` shards is decomposed
into ``P`` partitions (``P`` divides ``S``; by default one partition per
shard group).  Partition ``p`` owns a contiguous block of shard groups, the
``p``-th round-robin table slice of the dataset
(:meth:`~repro.workloads.Dataset.partition`), a near-even share of the
client population and operation budget, and RNG streams split from the
master seed via :func:`~repro.workloads.derive_substream_seed` -- the same
substream derivation :func:`~repro.workloads.split_workload_spec` uses,
so the workload layer and the simulator layer can never drift apart.  Every
cross-shard interaction named by the model -- scatter/gather query fan-out,
InvaliDB notifications, replication log shipping -- happens *inside* a
partition's own sub-deployment; fault-plan events targeting remote shards
are routed to the owning partition up front
(:meth:`~repro.faults.FaultPlan.split_by_shard`).

**One way to run a partition.**  Partitions share nothing, so there is
nothing to coordinate: :func:`run_partition` runs one job to completion with
the plain ``Simulator.run()``, and
:func:`~repro.simulation.pool.map_in_processes` maps it over the jobs -- a
loop in this process for one worker, a spawn-context process pool otherwise
-- returning outcomes in job order.

**Deterministic merge.**  Each outcome carries its run's exact mergeable
:class:`~repro.simulation.aggregate.RunAggregate`; :func:`merge_outcomes`
folds them in partition-id order, so the merged summary is byte-identical
run-to-run and *independent of the worker count*.

**The golden oracle.**  :func:`serial_oracle` is the one-worker run: every
partition executes in this process.  The parity harness
(:func:`run_parity_harness`) asserts that real spawned processes match it
exactly -- any divergence (RNG stream leakage, pickling drift, state leaking
between jobs sharing a worker) fails loudly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.simulation.aggregate import RunAggregate
from repro.simulation.pool import map_in_processes, usable_cpus
from repro.simulation.simulator import CachingMode, SimulationConfig, Simulator, require_count
from repro.workloads.dataset import Dataset, generate_dataset
from repro.workloads.generator import (
    derive_substream_seed,
    partition_share,
    split_workload_phases,
    split_workload_spec,
)


class ParallelParityError(AssertionError):
    """Spawned worker processes diverged from the in-process oracle."""


# -- partition planning ---------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionJob:
    """One partition of a simulation: sub-config plus its dataset slice."""

    partition_id: int
    config: SimulationConfig
    dataset: Dataset


def partition_simulation(
    config: SimulationConfig,
    num_partitions: Optional[int] = None,
    dataset: Optional[Dataset] = None,
) -> List[PartitionJob]:
    """Decompose ``config`` into independent per-partition sub-simulations.

    ``num_partitions`` defaults to ``config.num_shards`` (one partition per
    shard group).  ``num_partitions=1`` is the identity: the single job *is*
    the original config, so the degenerate parallel run reproduces the
    classic simulator exactly.  For ``P > 1`` every partition receives

    * ``num_shards / P`` shard groups (``P`` must divide ``num_shards``),
    * a near-even share of clients and operation budget (remainder to the
      lowest partition ids),
    * the ``p``-th table slice of the (parent-generated) dataset,
    * workload/seed substreams derived via
      :func:`~repro.workloads.derive_substream_seed`, and
    * the fault-plan events targeting its shards, rewritten into local shard
      numbering.

    The decomposition is a pure function of ``(config, num_partitions)``:
    the worker count never appears here, which is what makes merged results
    worker-count invariant.
    """
    total = num_partitions if num_partitions is not None else config.num_shards
    require_count("num_partitions", total)
    parent = dataset if dataset is not None else generate_dataset(config.dataset)
    if total == 1:
        return [PartitionJob(partition_id=0, config=config, dataset=parent)]
    if config.num_shards % total != 0:
        raise ConfigurationError(
            f"num_partitions ({total}) must divide num_shards ({config.num_shards})"
        )
    if config.num_clients < total:
        raise ConfigurationError(
            f"need at least one client per partition ({config.num_clients} clients, "
            f"{total} partitions)"
        )
    if config.max_operations < total:
        raise ConfigurationError(
            f"need at least one operation per partition ({config.max_operations} operations, "
            f"{total} partitions)"
        )
    shards_per_partition = config.num_shards // total
    fault_plans = None
    if config.fault_plan is not None:
        fault_plans = config.fault_plan.split_by_shard(total, shards_per_partition)

    jobs: List[PartitionJob] = []
    for partition_id in range(total):
        sub_config = replace(
            config,
            num_shards=shards_per_partition,
            num_clients=partition_share(config.num_clients, partition_id, total),
            max_operations=partition_share(config.max_operations, partition_id, total),
            seed=derive_substream_seed(config.seed, "partition", partition_id, total),
            workload=split_workload_spec(config.workload, partition_id, total),
            workload_phases=(
                split_workload_phases(config.workload_phases, partition_id, total)
                if config.workload_phases is not None
                else None
            ),
            fault_plan=fault_plans[partition_id] if fault_plans is not None else None,
            # Every partition samples its own jitter streams: a fresh copy of
            # the topology template, reseeded with the partition seed inside
            # Simulator.__init__.
            topology=copy.deepcopy(config.topology),
        )
        jobs.append(
            PartitionJob(
                partition_id=partition_id,
                config=sub_config,
                dataset=parent.partition(partition_id, total),
            )
        )
    return jobs


# -- per-partition outcomes -----------------------------------------------------------------


@dataclass
class PartitionOutcome:
    """What one finished partition ships back: its aggregate plus recorder rows."""

    partition_id: int
    aggregate: RunAggregate
    total_operations: int
    events_processed: int
    #: Recorded consistency history as flat picklable rows
    #: (:meth:`Simulator.history_tuples`); empty unless the config set
    #: ``record_history``.
    history: Tuple[tuple, ...] = ()
    #: Recorded trace spans as flat picklable rows
    #: (:meth:`Simulator.trace_tuples`); empty unless the config enabled
    #: ``observability`` tracing.
    trace: Tuple[tuple, ...] = ()
    #: Metrics registry state (:meth:`Simulator.metrics_state`); ``None``
    #: unless the config enabled ``observability`` metrics.
    metrics: Optional[tuple] = None


def run_partition(job: PartitionJob) -> PartitionOutcome:
    """Run one partition to completion with the plain single-process engine.

    A module-level function of one picklable job, so it runs unchanged in
    this process or in a spawned worker.
    """
    simulator = Simulator(job.config, dataset=job.dataset)
    result = simulator.run()
    return PartitionOutcome(
        partition_id=job.partition_id,
        aggregate=result.aggregate,
        total_operations=simulator.total_operations,
        events_processed=simulator.events.processed,
        history=simulator.history_tuples(),
        trace=simulator.trace_tuples(),
        metrics=simulator.metrics_state(),
    )


# -- deterministic merge --------------------------------------------------------------------


@dataclass
class ParallelSimulationResult:
    """Merged outcome of a partitioned simulation run."""

    mode: CachingMode
    num_workers: int
    total_operations: int
    events_processed: int
    #: The partition aggregates folded in partition-id order.
    aggregate: RunAggregate
    #: Per-partition outcomes, sorted by partition id.
    outcomes: List[PartitionOutcome]
    #: Partition histories concatenated in partition-id order with globally
    #: renumbered sequence numbers.  Empty unless the config set
    #: ``record_history``.
    history: Tuple[tuple, ...] = ()
    #: Partition traces merged in partition-id order with span/parent ids
    #: offset into one global id space (:func:`repro.obs.merge_trace_tuples`).
    #: Empty unless the config enabled ``observability`` tracing.
    trace: Tuple[tuple, ...] = ()
    #: Merged metrics registry state (:func:`repro.obs.merge_states`);
    #: ``None`` unless the config enabled ``observability`` metrics.
    metrics: Optional[tuple] = None

    def summary(self) -> Dict[str, float]:
        """Merged flat summary; same keys as the serial simulator's."""
        return self.aggregate.summary()

    def history_events(self) -> Tuple:
        """The merged history as :class:`~repro.verify.HistoryEvent` objects."""
        from repro.verify.history import events_from_tuples

        return events_from_tuples(self.history)


def merge_outcomes(
    outcomes: Iterable[PartitionOutcome], mode: CachingMode, num_workers: int
) -> ParallelSimulationResult:
    """Fold partition outcomes into one result, in canonical partition order.

    Sorting by partition id first is what makes the merge independent of the
    order outcomes are handed over in (float sums are order-sensitive); the
    summary itself is :meth:`RunAggregate.merge` over the sorted aggregates.
    """
    ordered = sorted(outcomes, key=lambda outcome: outcome.partition_id)
    if not ordered:
        raise ConfigurationError("cannot merge zero partition outcomes")

    # History, trace and metrics follow the same partition-order discipline:
    # histories concatenate with globally renumbered sequence numbers,
    # span/parent ids are offset into one global id space, counters
    # sum, histogram samples concatenate, series group by sample time.
    history: List[tuple] = []
    for outcome in ordered:
        for row in outcome.history:
            history.append((len(history),) + row[1:])
    trace: Tuple[tuple, ...] = ()
    if any(outcome.trace for outcome in ordered):
        from repro.obs import merge_trace_tuples

        trace = merge_trace_tuples([outcome.trace for outcome in ordered])
    metrics: Optional[tuple] = None
    if any(outcome.metrics is not None for outcome in ordered):
        from repro.obs import merge_states

        metrics = merge_states(
            [outcome.metrics for outcome in ordered if outcome.metrics is not None]
        )

    return ParallelSimulationResult(
        mode=mode,
        num_workers=num_workers,
        total_operations=sum(outcome.total_operations for outcome in ordered),
        events_processed=sum(outcome.events_processed for outcome in ordered),
        aggregate=RunAggregate.merge(outcome.aggregate for outcome in ordered),
        outcomes=ordered,
        history=tuple(history),
        trace=trace,
        metrics=metrics,
    )


# -- the engine -----------------------------------------------------------------------------


class ParallelSimulator:
    """Run a partitioned simulation, in this process or across worker processes.

    ``num_partitions`` fixes the decomposition (default: one partition per
    shard group); ``num_workers`` (default: the usable CPUs, at most one per
    partition) only chooses where :func:`run_partition` executes -- results
    are identical for every worker count.
    """

    def __init__(
        self,
        config: SimulationConfig,
        num_partitions: Optional[int] = None,
        num_workers: Optional[int] = None,
        dataset: Optional[Dataset] = None,
    ) -> None:
        self.config = config
        self.jobs = partition_simulation(config, num_partitions, dataset=dataset)
        requested = num_workers if num_workers is not None else usable_cpus()
        require_count("num_workers", requested)
        self.num_workers = min(requested, len(self.jobs))

    def run(self) -> ParallelSimulationResult:
        """Execute every partition and return the deterministically merged result."""
        outcomes = map_in_processes(run_partition, self.jobs, self.num_workers)
        return merge_outcomes(outcomes, mode=self.config.mode, num_workers=self.num_workers)


def serial_oracle(
    config: SimulationConfig,
    num_partitions: Optional[int] = None,
    dataset: Optional[Dataset] = None,
) -> ParallelSimulationResult:
    """Run the partitioned model in this process: the one-worker engine.

    This is the reference the parity harness holds spawned worker processes
    to, byte for byte.
    """
    return ParallelSimulator(config, num_partitions, num_workers=1, dataset=dataset).run()


# -- parity harness -------------------------------------------------------------------------


def parity_config(
    mode: CachingMode,
    replication_factor: int = 1,
    num_partitions: int = 2,
    seed: int = 42,
) -> SimulationConfig:
    """A small partitionable config for oracle-vs-parallel parity runs."""
    from repro.workloads.dataset import DatasetSpec
    from repro.workloads.generator import WorkloadSpec

    return SimulationConfig(
        mode=mode,
        workload=WorkloadSpec.read_heavy(),
        dataset=DatasetSpec(
            num_tables=max(2, num_partitions), documents_per_table=120, queries_per_table=12
        ),
        num_clients=num_partitions,
        connections_per_client=25,
        ebf_refresh_interval=1.0,
        matching_nodes=2,
        duration=30.0,
        max_operations=800,
        seed=seed,
        num_shards=num_partitions,
        replication_factor=replication_factor,
    )


def _summary_diff(expected: Dict[str, float], actual: Dict[str, float]) -> str:
    lines = []
    for key in sorted(set(expected) | set(actual)):
        left = expected.get(key, "<missing>")
        right = actual.get(key, "<missing>")
        if left != right:
            lines.append(f"  {key}: oracle={left!r} parallel={right!r}")
    return "\n".join(lines) or "  (keys equal but dicts differ?)"


def run_parity_harness(
    modes: Sequence[CachingMode] = (
        CachingMode.QUAESTOR,
        CachingMode.EBF_ONLY,
        CachingMode.CDN_ONLY,
    ),
    replication_factors: Sequence[int] = (1, 3),
    workers: Sequence[int] = (2,),
    num_partitions: int = 2,
    seed: int = 42,
    strict: bool = True,
) -> Dict[str, object]:
    """Prove merged parallel summaries byte-identical to the serial oracle.

    For every ``mode x replication_factor`` case the same partitioned config
    is run through :func:`serial_oracle` (every partition in this process)
    and through :class:`ParallelSimulator` at each requested worker count;
    the summary dicts must compare *equal* -- Python float equality, no
    tolerance.  With ``strict`` (the default, what the CI smoke step runs) a
    mismatch raises :class:`ParallelParityError` carrying the per-key diff.
    """
    cases: List[Dict[str, object]] = []
    all_match = True
    for mode in modes:
        for replication_factor in replication_factors:
            config = parity_config(
                mode,
                replication_factor=replication_factor,
                num_partitions=num_partitions,
                seed=seed,
            )
            oracle = serial_oracle(config, num_partitions)
            oracle_summary = oracle.summary()
            case: Dict[str, object] = {
                "case": f"{mode.value}/rf={replication_factor}",
                "num_partitions": num_partitions,
                "oracle_summary": oracle_summary,
                "workers": {},
            }
            for worker_count in workers:
                engine = ParallelSimulator(
                    config, num_partitions=num_partitions, num_workers=worker_count
                )
                parallel_summary = engine.run().summary()
                matches = parallel_summary == oracle_summary
                case["workers"][worker_count] = matches
                if not matches:
                    all_match = False
                    if strict:
                        raise ParallelParityError(
                            f"parallel summary diverged from the single-process oracle "
                            f"({case['case']}, workers={worker_count}):\n"
                            + _summary_diff(oracle_summary, parallel_summary)
                        )
            cases.append(case)
    return {"all_match": all_match, "cases": cases}
