"""Dataset generation: tables, documents and query templates.

Reproduces the paper's experimental data layout (Section 6.1): a configurable
number of tables, each populated with documents, and a set of distinct queries
per table that initially return a target average number of documents.  Queries
select on a ``category`` attribute whose cardinality is chosen so that the
average result size matches the target (10 documents in the paper's setup).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.db.database import Database
from repro.db.documents import Document
from repro.db.query import Query

#: The indexed field every generated query selects on; anything loading the
#: dataset (single database or per-shard routed load) indexes this field.
INDEXED_QUERY_FIELD = "category"

_TAG_POOL = (
    "example",
    "music",
    "travel",
    "food",
    "science",
    "sports",
    "code",
    "art",
    "news",
    "games",
)


@dataclass(frozen=True)
class DatasetSpec:
    """Shape of the generated dataset."""

    num_tables: int = 10
    documents_per_table: int = 10_000
    queries_per_table: int = 100
    average_result_size: int = 10
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_tables <= 0:
            raise ValueError("num_tables must be positive")
        if self.documents_per_table <= 0:
            raise ValueError("documents_per_table must be positive")
        if self.queries_per_table <= 0:
            raise ValueError("queries_per_table must be positive")
        if self.average_result_size <= 0:
            raise ValueError("average_result_size must be positive")

    @property
    def categories_per_table(self) -> int:
        """Distinct category values so each query matches ~average_result_size docs."""
        return max(
            self.queries_per_table,
            self.documents_per_table // self.average_result_size,
        )


@dataclass
class Dataset:
    """A generated dataset: documents and query templates per table.

    The documents are immutable snapshots: loading a database adopts them by
    reference, so nobody may edit one in place.
    """

    spec: DatasetSpec
    tables: List[str]
    documents: Dict[str, List[Document]] = field(default_factory=dict)
    queries: Dict[str, List[Query]] = field(default_factory=dict)

    def load_into(self, database: Database) -> None:
        """Pre-load every document into ``database`` (and index the query field).

        The documents are adopted by reference
        (:meth:`~repro.db.collection.Collection.preload`), so one dataset can
        back any number of databases.
        """
        for table in self.tables:
            collection = database.create_collection(table)
            collection.create_index(INDEXED_QUERY_FIELD)
            collection.preload(self.documents[table])

    def all_queries(self) -> List[Query]:
        """Every query template across all tables."""
        return [query for table in self.tables for query in self.queries[table]]

    def all_document_ids(self) -> List[tuple]:
        """Every ``(table, document_id)`` pair."""
        return [
            (table, str(document["_id"]))
            for table in self.tables
            for document in self.documents[table]
        ]

    def partition(self, partition_id: int, num_partitions: int) -> "Dataset":
        """The ``partition_id``-th table slice of this dataset.

        Tables are assigned round-robin by index (table ``i`` belongs to
        partition ``i % num_partitions``), which spreads any index-correlated
        skew evenly.  The slice shares the parent's document and query
        objects (no copy); its spec reflects the reduced table count.  Every
        partition must end up with at least one table -- the
        process-parallel simulator shards workload substreams by these
        slices, and an empty slice could generate no operations.
        """
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if not 0 <= partition_id < num_partitions:
            raise ValueError("partition_id out of range")
        if len(self.tables) < num_partitions:
            raise ValueError(
                f"cannot partition {len(self.tables)} table(s) across "
                f"{num_partitions} partitions: every partition needs at least one table"
            )
        tables = [
            table for index, table in enumerate(self.tables) if index % num_partitions == partition_id
        ]
        from dataclasses import replace as dataclass_replace

        return Dataset(
            spec=dataclass_replace(self.spec, num_tables=len(tables)),
            tables=tables,
            documents={table: self.documents[table] for table in tables},
            queries={table: self.queries[table] for table in tables},
        )


def generate_dataset(spec: DatasetSpec) -> Dataset:
    """Generate documents and queries according to ``spec`` (deterministic).

    Each document is a blog post (the paper's running example domain).  The
    draws are CPython's own under ``randint`` and ``sample``, made directly:
    ``randint(a, b)`` is ``a + _randbelow(b - a + 1)``, and ``sample`` of a
    pool this small draws ``_randbelow(n - i)`` for its ``i``-th pick and
    moves the pool's last free member into the vacancy.
    """
    rng = random.Random(spec.seed)
    below = rng._randbelow
    tables = [f"table_{index:02d}" for index in range(spec.num_tables)]
    dataset = Dataset(spec=spec, tables=tables)
    categories = spec.categories_per_table
    pool_size = len(_TAG_POOL)

    for table in tables:
        documents: List[Document] = []
        for index in range(spec.documents_per_table):
            pool = list(_TAG_POOL)
            tags = [None] * (1 + below(3))
            for pick in range(len(tags)):
                position = below(pool_size - pick)
                tags[pick] = pool[position]
                pool[position] = pool[pool_size - pick - 1]
            documents.append({
                "_id": f"{table}-doc-{index:06d}",
                "title": f"Post {index} in {table}",
                "category": index % categories,
                "tags": tags,
                "views": below(10_001),
                "author": f"user-{below(500):03d}",
                "body": f"Lorem ipsum dolor sit amet ({below(1_000_001)})",
            })
        dataset.documents[table] = documents

        # Queries select a distinct category each; the first queries_per_table
        # categories are used so results have the intended average size.
        dataset.queries[table] = [
            Query(table, {"category": category_index})
            for category_index in range(spec.queries_per_table)
        ]

    return dataset
