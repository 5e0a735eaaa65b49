"""Quaestor core: the DBaaS middleware tying every subsystem together.

The :class:`QuaestorServer` enhances the underlying document database with
query and record caching: it assigns TTLs (via the statistical estimator),
maintains the server-side Expiring Bloom Filter, registers cached queries in
InvaliDB, reacts to invalidation notifications by updating the EBF and purging
invalidation-based caches, decides between id-list and object-list result
representations, and enforces capacity management for the set of actively
matched queries.
"""

from __future__ import annotations

from repro.core.config import QuaestorConfig
from repro.core.active_list import ActiveList, ActiveQueryEntry
from repro.core.read_path import PreparedShardRead
from repro.core.representation import ResultRepresentation, choose_representation
from repro.core.consistency import ConsistencyLevel
from repro.core.server import QuaestorServer
from repro.core.transactions import Transaction

__all__ = [
    "QuaestorConfig",
    "ActiveList",
    "ActiveQueryEntry",
    "PreparedShardRead",
    "ResultRepresentation",
    "choose_representation",
    "ConsistencyLevel",
    "QuaestorServer",
    "Transaction",
]
