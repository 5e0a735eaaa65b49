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
from typing import Dict, List, Tuple

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

    def document_targets(self) -> Tuple[List[str], List[str]]:
        """Every document as ``(tables, ids)``, two flat lists in table order:
        target ``i`` is document ``ids[i]`` of table ``tables[i]``."""
        tables: List[str] = []
        ids: List[str] = []
        for table in self.tables:
            documents = self.documents[table]
            tables += [table] * len(documents)
            ids += [document["_id"] for document in documents]
        return tables, ids


def generate_dataset(spec: DatasetSpec) -> Dataset:
    """Generate documents and queries according to ``spec`` (deterministic).

    Each document is a blog post (the paper's running example domain).  The
    draws are CPython's own under ``randint`` and ``sample``, made directly:
    ``randint(a, b)`` is ``a + _randbelow(b - a + 1)``, and ``sample`` of a
    pool this small draws ``_randbelow(n - i)`` for its ``i``-th pick and
    moves the pool's last free member into the vacancy.  Each
    ``_randbelow(n)`` is CPython's ``_randbelow_with_getrandbits`` written
    out in the loop -- ``getrandbits(n.bit_length())`` until the draw is
    below ``n`` -- with every bound's bit length worked out once, so a
    document costs no Python frame.  The zero-padded numbers are formatted
    once per value, not once per document.
    """
    rng = random.Random(spec.seed)
    bits = rng.getrandbits
    tables = [f"table_{index:02d}" for index in range(spec.num_tables)]
    dataset = Dataset(spec=spec, tables=tables)
    count = spec.documents_per_table
    categories = spec.categories_per_table
    pool_size = len(_TAG_POOL)
    # The (bound, bit length) of each tag pick of a post with 1, 2 or 3 tags.
    picks = [
        [(bound, bound.bit_length()) for bound in range(pool_size, pool_size - tags, -1)]
        for tags in (1, 2, 3)
    ]
    count_bits = (3).bit_length()
    views_bits = (10_001).bit_length()
    author_bits = (500).bit_length()
    body_bits = (1_000_001).bit_length()
    padded = [f"{index:06d}" for index in range(count)]
    authors = [f"user-{author:03d}" for author in range(500)]

    for table in tables:
        documents = [None] * count
        for index in range(count):
            extra = bits(count_bits)
            while extra >= 3:
                extra = bits(count_bits)
            pool = list(_TAG_POOL)
            tags = [None] * (1 + extra)
            pick = 0
            for bound, width in picks[extra]:
                position = bits(width)
                while position >= bound:
                    position = bits(width)
                tags[pick] = pool[position]
                pool[position] = pool[bound - 1]
                pick += 1
            views = bits(views_bits)
            while views >= 10_001:
                views = bits(views_bits)
            author = bits(author_bits)
            while author >= 500:
                author = bits(author_bits)
            body = bits(body_bits)
            while body >= 1_000_001:
                body = bits(body_bits)
            documents[index] = {
                "_id": f"{table}-doc-{padded[index]}",
                "title": f"Post {index} in {table}",
                "category": index % categories,
                "tags": tags,
                "views": views,
                "author": authors[author],
                "body": f"Lorem ipsum dolor sit amet ({body})",
            }
        dataset.documents[table] = documents

        # Queries select a distinct category each; the first queries_per_table
        # categories are used so results have the intended average size.
        dataset.queries[table] = [
            Query(table, {"category": category_index})
            for category_index in range(spec.queries_per_table)
        ]

    return dataset
