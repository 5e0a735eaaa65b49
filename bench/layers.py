"""The layer table and the cProfile attribution behind every per-layer metric.

A *layer* is the ``src/repro/<package>`` a profiled frame's file lives in
(top-level modules such as ``clock.py`` are their own layer).  Everything
here reads a finished ``cProfile`` run from the outside: the program under
test is not edited, so a span is a public function named in ``BOUNDARIES``
and a layer's self time is the ``tottime`` of its frames.
"""

from __future__ import annotations

import importlib
import os
import sys
from typing import Dict, Tuple

#: Every package of ``src/repro`` the simulator can execute, in request
#: order, plus ``stdlib`` for pure-Python frames outside the repo.
LAYERS: Tuple[str, ...] = (
    "workloads", "simulation", "client", "caching", "bloom", "rest", "core",
    "db", "invalidb", "ttl", "kvstore", "metrics", "clock", "cluster",
    "replication", "resilience", "faults", "verify", "obs", "stdlib",
)

#: Layers that must cost *zero calls* on a single-server run: the pin for
#: "recorders and the fleet machinery are free when switched off".
FLEET_ONLY_LAYERS: Tuple[str, ...] = (
    "cluster", "replication", "resilience", "faults", "verify", "obs",
)

#: Boundary spans: ``(metric stem, public functions)``.  Each stem yields
#: ``<stem>.calls_per_op`` and ``<stem>.incl_us_per_call`` (``cumtime``); a
#: stem with several functions reports them summed.  A name that no longer
#: resolves fails the traced pass -- a renamed public function must break the
#: benchmark loudly, not drop its metric to 0.
BOUNDARIES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("workloads.next_operations", ("repro.workloads.generator:WorkloadGenerator.next_operations",)),
    ("simulation.event_schedule", ("repro.simulation.event_queue:EventQueue.schedule",)),
    ("simulation.event_pop", ("repro.simulation.event_queue:EventQueue.pop_if_before",)),
    ("simulation.audit_read", ("repro.simulation.staleness:StalenessAuditor.audit_read",)),
    ("client.read", ("repro.client.sdk:QuaestorClient.read",)),
    ("client.query", ("repro.client.sdk:QuaestorClient.query",)),
    ("client.write", (
        "repro.client.sdk:QuaestorClient.update",
        "repro.client.sdk:QuaestorClient.insert",
        "repro.client.sdk:QuaestorClient.delete",
    )),
    ("caching.fetch", ("repro.caching.hierarchy:CacheHierarchy.fetch",)),
    # The simulator purges the CDN cache object directly (the hierarchy's own
    # purge fan-out is not on the simulated path).
    ("caching.purge", ("repro.caching.invalidation:InvalidationCache.purge",)),
    ("bloom.ebf_report_read", ("repro.bloom.expiring:ExpiringBloomFilter.report_read",)),
    ("bloom.ebf_report_invalidation", ("repro.bloom.expiring:ExpiringBloomFilter.report_invalidation",)),
    ("bloom.ebf_to_flat", ("repro.bloom.expiring:ExpiringBloomFilter.to_flat",)),
    ("core.handle_read", ("repro.core.server:QuaestorServer.handle_read",)),
    ("core.handle_query", ("repro.core.server:QuaestorServer.handle_query",)),
    ("core.handle_write", (
        "repro.core.server:QuaestorServer.handle_update",
        "repro.core.server:QuaestorServer.handle_insert",
        "repro.core.server:QuaestorServer.handle_delete",
    )),
    ("db.find", ("repro.db.database:Database.find",)),
    ("db.get", ("repro.db.database:Database.get",)),
    ("db.update", ("repro.db.database:Database.update",)),
    ("db.deep_copy", ("repro.db.documents:deep_copy",)),
    ("invalidb.process_event", ("repro.invalidb.cluster:InvaliDBCluster.process_event",)),
    ("invalidb.register_query", ("repro.invalidb.cluster:InvaliDBCluster.register_query",)),
    ("cluster.handle_read", ("repro.cluster.client:ClusterClient.handle_read",)),
    ("cluster.handle_query", ("repro.cluster.client:ClusterClient.handle_query",)),
    ("cluster.handle_write", (
        "repro.cluster.client:ClusterClient.handle_update",
        "repro.cluster.client:ClusterClient.handle_insert",
        "repro.cluster.client:ClusterClient.handle_delete",
    )),
    ("replication.group_read", ("repro.replication.group:ReplicaGroup.read",)),
    ("verify.record_operation", ("repro.verify.history:HistoryRecorder.record_operation",)),
    ("obs.span_begin", ("repro.obs.trace:TraceRecorder.begin",)),
)


class LayerTableError(RuntimeError):
    """The layer or boundary table no longer matches the program."""


def _layer_of_module(module_name: str) -> str:
    """``repro.db.documents`` -> ``db``; ``repro.clock`` -> ``clock``."""
    return module_name.split(".")[1]


def _resolve(spec: str):
    module_name, _, path = spec.partition(":")
    try:
        target = importlib.import_module(module_name)
        for attribute in path.split("."):
            target = getattr(target, attribute)
        return target.__code__
    except (ImportError, AttributeError) as error:
        raise LayerTableError(f"boundary function {spec!r} does not resolve: {error}") from error


def resolve_boundaries() -> Dict[str, list]:
    """Code objects of every boundary function, keyed by metric stem."""
    return {stem: [_resolve(spec) for spec in functions] for stem, functions in BOUNDARIES}


def _generated_code_layers() -> Dict[object, str]:
    """Layers of generated methods (dataclass ``__init__`` & co).

    Their code objects carry the file name ``<string>``, so the defining
    class's module is the only way to tell which layer they belong to.
    """
    layers: Dict[object, str] = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro."):
            continue
        for owner in vars(module).values():
            if not isinstance(owner, type) or owner.__module__ != module_name:
                continue
            for member in vars(owner).values():
                code = getattr(member, "__code__", None)
                if code is not None and code.co_filename.startswith("<"):
                    layers[code] = _layer_of_module(module_name)
    return layers


def attribute(stats: list, operations: int) -> Dict[str, float]:
    """Fold ``cProfile.Profile.getstats()`` into the per-layer metrics.

    A C function has no file, so its self time and calls are charged to the
    layer of the Python frame that called it (the profile's caller edges).
    The per-layer ``calls_per_op`` therefore sum exactly to the run's total
    ``calls_per_op``, which is returned under that name.
    """
    source_root = os.path.join(os.path.dirname(importlib.import_module("repro").__file__), "")
    generated = _generated_code_layers()
    self_seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    undeclared = set()

    def layer_of(code) -> str:
        filename = code.co_filename
        if filename.startswith("<"):
            return generated.get(code, "stdlib")
        if not filename.startswith(source_root):
            return "stdlib"
        head = filename[len(source_root):].split(os.sep)[0]
        layer = head[:-3] if head.endswith(".py") else head
        if layer not in self_seconds or layer == "stdlib":
            undeclared.add(filename)
            return "stdlib"
        return layer

    by_code = {}
    for entry in stats:
        if isinstance(entry.code, str):
            continue
        by_code[entry.code] = entry
        layer = layer_of(entry.code)
        self_seconds[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                self_seconds[layer] += callee.inlinetime
                calls[layer] += callee.callcount
    if undeclared:
        raise LayerTableError(
            "profiled files under src/repro map to no declared layer: "
            + ", ".join(sorted(undeclared))
        )
    # C functions entered from no profiled Python frame (the profiler's own
    # ``disable``): keep the sums exact by booking them under stdlib.
    total_calls = sum(entry.callcount for entry in stats)
    total_self = sum(entry.inlinetime for entry in stats)
    calls["stdlib"] += total_calls - sum(calls.values())
    self_seconds["stdlib"] += total_self - sum(self_seconds.values())

    metrics: Dict[str, float] = {"calls_per_op": total_calls / operations}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_op"] = self_seconds[layer] * 1e6 / operations
        metrics[f"{layer}.calls_per_op"] = calls[layer] / operations
    for stem, codes in resolve_boundaries().items():
        entries = [by_code[code] for code in codes if code in by_code]
        span_calls = sum(entry.callcount for entry in entries)
        inclusive = sum(entry.totaltime for entry in entries)
        metrics[f"{stem}.calls_per_op"] = span_calls / operations
        metrics[f"{stem}.incl_us_per_call"] = inclusive * 1e6 / span_calls if span_calls else 0.0
    return metrics
