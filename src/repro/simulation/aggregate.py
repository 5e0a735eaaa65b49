"""The aggregate of a run: the one place a summary is derived.

A finished :class:`~repro.simulation.Simulator` reduces its measured window
to a :class:`RunAggregate` -- raw sums and counts, never pre-divided rates --
and every flat summary in the repo is that aggregate's
:meth:`~RunAggregate.summary` (``SimulationResult.summary()`` reads it off
the run's aggregate), so no summary key has a second definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.client.sdk import ERROR_LEVEL


@dataclass
class RunAggregate:
    """Raw sums and counts of one run's measured window."""

    measured_operations: int = 0
    #: Seconds of simulated time the measured window spans.
    measured_duration: float = 0.0
    #: ``measured_operations / measured_duration``.
    throughput: float = 0.0
    #: Per op-class ``(latency_sum_seconds, sample_count)``.
    latency: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    #: Per op-class serving-level counts.
    level_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Staleness-audit counters (``audited_*`` / ``stale_*`` / ``degraded_served``).
    stale_counts: Dict[str, int] = field(default_factory=dict)
    staleness_sum: float = 0.0
    staleness_count: int = 0
    max_staleness: float = 0.0
    replica_reads: int = 0
    primary_reads: int = 0
    failovers: int = 0
    faults_fired: int = 0
    recovery_times: Tuple[float, ...] = ()
    #: Resilience counters keyed by their summary name, in summary order.
    resilience: Dict[str, int] = field(default_factory=dict)
    #: Presence flags: which optional key blocks the summary carries.  They
    #: come from the run's config, never from sniffing for keys, so the
    #: summary of a plain run stays byte-identical to one from before the
    #: replication / fault / resilience layers existed.
    replication_active: bool = False
    has_fault_injector: bool = False
    has_resilience: bool = False

    def mean_latency_ms(self, op_class: str) -> float:
        latency_sum, count = self.latency.get(op_class, (0.0, 0))
        return (latency_sum / count) * 1000.0 if count else 0.0

    def hit_rate(self, op_class: str, level: str) -> float:
        """Share of ``op_class`` operations answered at ``level``."""
        counts = self.level_counts.get(op_class, {})
        total = sum(counts.values())
        return counts.get(level, 0) / total if total else 0.0

    def stale_rate(self, op_class: str) -> float:
        """Share of audited ``op_class`` operations that returned stale data."""
        audited = self.stale_counts.get(f"audited_{op_class}", 0)
        return self.stale_counts.get(f"stale_{op_class}", 0) / audited if audited else 0.0

    def summary(self) -> Dict[str, float]:
        """The flat summary: the single definition of every summary key.

        Replicated / fault-injected runs append their availability metrics
        (request error rate, replica read share, failover counts and
        time-to-recover, observed staleness bounds); runs with a resilience
        layer append its counters after those.
        """
        summary: Dict[str, float] = {
            "throughput": self.throughput,
            "mean_read_latency_ms": self.mean_latency_ms("read"),
            "mean_query_latency_ms": self.mean_latency_ms("query"),
            "client_query_hit_rate": self.hit_rate("query", "client"),
            "client_read_hit_rate": self.hit_rate("read", "client"),
            "cdn_query_hit_rate": self.hit_rate("query", "cdn"),
            "cdn_read_hit_rate": self.hit_rate("read", "cdn"),
            "query_stale_rate": self.stale_rate("query"),
            "read_stale_rate": self.stale_rate("read"),
        }
        if not self.replication_active:
            return summary
        errors = sum(counts.get(ERROR_LEVEL, 0) for counts in self.level_counts.values())
        operations = self.measured_operations
        reads = self.primary_reads + self.replica_reads
        summary["request_error_rate"] = errors / operations if operations else 0.0
        summary["replica_read_share"] = self.replica_reads / reads if reads else 0.0
        summary["failovers"] = float(self.failovers)
        summary["max_staleness_s"] = self.max_staleness
        summary["mean_staleness_s"] = (
            self.staleness_sum / self.staleness_count if self.staleness_count else 0.0
        )
        if self.has_fault_injector:
            summary["faults_injected"] = float(self.faults_fired)
            if self.recovery_times:
                summary["mean_time_to_recover_s"] = sum(self.recovery_times) / len(
                    self.recovery_times
                )
                summary["max_time_to_recover_s"] = max(self.recovery_times)
        if self.has_resilience:
            # Resilience keys ride on the availability block: they only mean
            # anything under faults.
            for name, count in self.resilience.items():
                summary[name] = float(count)
            summary["degraded_served"] = float(self.stale_counts.get("degraded_served", 0))
        return summary
