"""The metric catalogue: every name the benchmark prints, with unit, direction and bound.

Two kinds of end-to-end number are kept apart.  **Host** metrics are what a
researcher or CI job pays to run an experiment; they are noisy and bounded.
**Exact** metrics (simulated outcomes and call counts) repeat to the last
digit for a seed, so between two runs of one seed any difference at all is a
behaviour change; their bound only gates runs on *different* seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from bench.layers import BOUNDARIES, LAYERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the baseline's value by which the metric may worsen before it
    #: counts as a regression ...
    bound: float
    exact: bool = True
    #: ... or this much in the metric's own unit, whichever is larger (for
    #: values near 0, where a share of the baseline means nothing).
    absolute: float = 0.0
    #: Gated by the driver through ``BENCHMARK.json``.  Off for metrics that
    #: can be 0 (the driver needs a relative bound) or need the traced pass.
    gated: bool = True


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, exact=False, absolute=0.05),
    Metric("host_ops_per_s", "1/s", "higher", 0.25, exact=False),
    Metric("peak_rss_mb", "MB", "lower", 0.10, exact=False),
    Metric("calls_per_op", "calls/op", "lower", 0.01, gated=False),
    Metric("sim_throughput_ops_s", "1/s", "higher", 0.10),
    Metric("sim_read_mean_ms", "ms", "lower", 0.08),
    Metric("sim_read_p99_ms", "ms", "lower", 0.06),
    Metric("sim_query_mean_ms", "ms", "lower", 0.15),
    Metric("sim_query_p99_ms", "ms", "lower", 0.10),
    Metric("sim_stale_read_rate", "ratio", "lower", 0.01, gated=False, absolute=1e-4),
    Metric("sim_stale_query_rate", "ratio", "lower", 0.01, gated=False, absolute=1e-4),
    Metric("sim_error_rate", "ratio", "lower", 0.01, gated=False, absolute=1e-4),
    # The three rates above as never-zero complements, for the driver's gate.
    Metric("sim_fresh_read_share", "ratio", "higher", 0.01),
    Metric("sim_fresh_query_share", "ratio", "higher", 0.02),
    Metric("sim_success_share", "ratio", "higher", 0.01),
)

#: Modelled-component counters read from public statistics of segment 0
#: (exact): ``(name, unit, better)``.
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("simulation.events_per_op", "count", "lower"),
    ("caching.client_read_hit_rate", "ratio", "higher"),
    ("caching.client_query_hit_rate", "ratio", "higher"),
    ("caching.cdn_read_hit_rate", "ratio", "higher"),
    ("caching.cdn_query_hit_rate", "ratio", "higher"),
    ("client.ebf_refreshes", "count", "lower"),
    ("bloom.ebf_fill_ratio", "ratio", "lower"),
    ("bloom.ebf_additions_per_write", "count", "lower"),
    ("core.origin_requests_per_op", "count", "lower"),
    ("core.purges_per_write", "count", "lower"),
    ("invalidb.query_invalidations_per_write", "count", "lower"),
    ("invalidb.active_queries", "count", "higher"),
    ("cluster.scatter_abort_rate", "ratio", "lower"),
    ("replication.replica_read_share", "ratio", "higher"),
    ("replication.failovers", "count", "lower"),
    ("resilience.retries", "count", "lower"),
    ("resilience.retry_success_ratio", "ratio", "higher"),
    ("resilience.breaker_fast_fails", "count", "lower"),
    ("resilience.hedged_reads", "count", "lower"),
    ("verify.history_events_per_op", "count", "lower"),
    ("obs.spans_per_op", "count", "lower"),
)


def per_layer_catalogue() -> List[Dict[str, str]]:
    """Every per-layer metric, in the shape ``BENCHMARK.json`` lists them."""
    catalogue = [
        {"name": "calls_per_op", "unit": "calls/op", "better": "lower"},
        {"name": "trace_overhead_ratio", "unit": "ratio", "better": "lower"},
    ]
    for layer in LAYERS:
        catalogue.append({"name": f"{layer}.self_us_per_op", "unit": "us/op", "better": "lower"})
        catalogue.append({"name": f"{layer}.calls_per_op", "unit": "calls/op", "better": "lower"})
    for stem, _functions in BOUNDARIES:
        catalogue.append({"name": f"{stem}.calls_per_op", "unit": "calls/op", "better": "lower"})
        catalogue.append({"name": f"{stem}.incl_us_per_call", "unit": "us", "better": "lower"})
    catalogue += [{"name": name, "unit": unit, "better": better} for name, unit, better in COUNTERS]
    return catalogue
