"""Document database substrate (MongoDB-like).

Quaestor is implemented for aggregate-oriented NoSQL databases; the paper's
deployment stores records in a sharded MongoDB cluster and expresses queries
in the MongoDB query language.  This package reproduces the database features
Quaestor relies on:

* rich nested documents stored in named collections (tables),
* CRUD operations that yield *after-images* on a change stream (the input to
  InvaliDB's invalidation detection),
* MongoDB-style query predicates, sorting, limit and offset,
* MongoDB-style update operators (``$set``, ``$inc``, ``$push``, ...),
* consistent-hash placement of record keys onto shards (the cluster
  router's ring), and
* simple secondary indexes for equality predicates.

Joins and aggregations are intentionally unsupported, matching the paper's
scope (Section 4.1).
"""

from __future__ import annotations

from repro.db.changestream import ChangeEvent, ChangeStream, OperationType
from repro.db.collection import Collection
from repro.db.database import Database
from repro.db.documents import Document, get_path, set_path
from repro.db.predicates import matches
from repro.db.query import Query
from repro.db.sharding import ConsistentHashRing, ShardStatisticsTable
from repro.db.updates import apply_update

__all__ = [
    "ChangeEvent",
    "ChangeStream",
    "OperationType",
    "Collection",
    "Database",
    "Document",
    "get_path",
    "set_path",
    "matches",
    "Query",
    "ConsistentHashRing",
    "ShardStatisticsTable",
    "apply_update",
]
