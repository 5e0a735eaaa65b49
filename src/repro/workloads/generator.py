"""Workload generator: sampling an operation stream from a workload spec.

Requests are generated exactly as described in Section 6.1 of the paper: first
an operation type is sampled from a discrete distribution, then the key or
query (and the table) it targets is sampled from a Zipfian distribution.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.workloads.dataset import Dataset
from repro.workloads.distributions import ZipfianGenerator
from repro.workloads.operations import Operation, OperationType


@dataclass(frozen=True)
class WorkloadSpec:
    """Proportions and skew of the generated operation stream.

    The proportions must sum to 1.  The paper's read-heavy workload uses 49.5 %
    reads, 49.5 % queries and 1 % (partial) updates.
    """

    read_proportion: float = 0.495
    query_proportion: float = 0.495
    update_proportion: float = 0.01
    insert_proportion: float = 0.0
    delete_proportion: float = 0.0
    zipf_constant: float = 0.7
    seed: int = 11

    def __post_init__(self) -> None:
        total = (
            self.read_proportion
            + self.query_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.delete_proportion
        )
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"operation proportions must sum to 1, got {total}")
        for name, value in (
            ("read_proportion", self.read_proportion),
            ("query_proportion", self.query_proportion),
            ("update_proportion", self.update_proportion),
            ("insert_proportion", self.insert_proportion),
            ("delete_proportion", self.delete_proportion),
        ):
            if value < 0:
                raise ConfigurationError(f"{name} must be non-negative")

    @classmethod
    def read_heavy(cls, zipf_constant: float = 0.7, seed: int = 11) -> "WorkloadSpec":
        """The paper's read-heavy workload: 99 % reads+queries, 1 % writes."""
        return cls(
            read_proportion=0.495,
            query_proportion=0.495,
            update_proportion=0.01,
            zipf_constant=zipf_constant,
            seed=seed,
        )

    @classmethod
    def with_update_rate(
        cls, update_rate: float, zipf_constant: float = 0.7, seed: int = 11
    ) -> "WorkloadSpec":
        """Equal read/query shares with the given update rate (Figure 9 sweep)."""
        if not 0 <= update_rate < 1:
            raise ConfigurationError("update_rate must lie in [0, 1)")
        remaining = 1.0 - update_rate
        return cls(
            read_proportion=remaining / 2,
            query_proportion=remaining / 2,
            update_proportion=update_rate,
            zipf_constant=zipf_constant,
            seed=seed,
        )


class WorkloadGenerator:
    """Samples :class:`Operation` instances against a generated dataset."""

    def __init__(self, spec: WorkloadSpec, dataset: Dataset) -> None:
        self.spec = spec
        self.dataset = dataset
        self._rng = random.Random(spec.seed)
        self._insert_counter = 0

        document_ids = dataset.all_document_ids()
        queries = dataset.all_queries()
        if not document_ids or not queries:
            raise ConfigurationError("dataset must contain documents and queries")
        self._document_ids = document_ids
        self._queries = queries
        #: One read / query operation per target index, built on first use:
        #: an :class:`Operation` is read-only by convention, so every draw of
        #: the same target can hand out the same one.
        self._read_operations: List[Optional[Operation]] = [None] * len(document_ids)
        self._query_operations: List[Optional[Operation]] = [None] * len(queries)

        self._document_picker = ZipfianGenerator(
            len(document_ids), spec.zipf_constant, random.Random(spec.seed + 1)
        )
        self._query_picker = ZipfianGenerator(
            len(queries), spec.zipf_constant, random.Random(spec.seed + 2)
        )

        choices = [
            (OperationType.READ, spec.read_proportion),
            (OperationType.QUERY, spec.query_proportion),
            (OperationType.UPDATE, spec.update_proportion),
            (OperationType.INSERT, spec.insert_proportion),
            (OperationType.DELETE, spec.delete_proportion),
        ]
        # Cumulative-weight table for ``random.choices``-style type sampling,
        # accumulated left to right: a draw selects the first type whose
        # cumulative weight exceeds it (the first type if rounding leaves
        # the total short of the draw).
        self._type_order = [operation_type for operation_type, _ in choices]
        cumulative = 0.0
        self._cum_weights: List[float] = []
        for _operation_type, proportion in choices:
            cumulative += proportion
            self._cum_weights.append(cumulative)

    # -- sampling -------------------------------------------------------------------

    def next_operations(self, count: int) -> List[Operation]:
        """Sample ``count`` operations in one batch.

        Emits the exact operation stream ``count`` batches of one would
        produce (pinned by a golden test):
        every RNG consumes its variates in the same per-operation order --
        the type/payload stream draws type-then-payload per operation, and
        the document/query pickers run on their own seeded streams, so their
        draws may be deferred and batched.  What the batch removes is the
        per-operation Python dispatch: one bisect over a precomputed
        cumulative-weight table per type draw, and one
        :meth:`~repro.workloads.distributions.ZipfianGenerator.next_indexes`
        call per picker per chunk.  Reads and queries come from the
        per-target operations (:attr:`_read_operations`), so a repeat draw
        of a target builds nothing.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        rng_random = self._rng.random
        cum_weights = self._cum_weights
        type_order = self._type_order
        top = len(type_order)
        read_type = OperationType.READ
        query_type = OperationType.QUERY
        update_type = OperationType.UPDATE
        insert_type = OperationType.INSERT

        # Pass 1 -- type and payload sampling.  Types and (for writes) payloads
        # interleave on the shared spec RNG, operation by operation.  A read
        # or query plans as its bare type, a write as a tuple.
        plan: List[object] = [None] * count
        document_picks = 0
        for position in range(count):
            draw = rng_random()
            index = bisect_right(cum_weights, draw)
            operation_type = type_order[index] if index < top else type_order[0]
            if operation_type is query_type:
                plan[position] = operation_type
                continue
            document_picks += 1
            if operation_type is update_type:
                plan[position] = (operation_type, self._partial_update(), None)
            elif operation_type is insert_type:
                self._insert_counter += 1
                # The insert payload's RNG draws happen here, in stream order;
                # the target table (and thus the new id) is resolved from the
                # document pick during assembly.
                plan[position] = (operation_type, self._insert_payload(), self._insert_counter)
            elif operation_type is read_type:
                plan[position] = operation_type
            else:
                plan[position] = (operation_type, None, None)

        # Pass 2 -- batched target sampling on the pickers' dedicated streams.
        document_indexes = iter(self._document_picker.next_indexes(document_picks))
        query_indexes = iter(self._query_picker.next_indexes(count - document_picks))

        document_ids = self._document_ids
        queries = self._queries
        read_operations = self._read_operations
        query_operations = self._query_operations
        for position, entry in enumerate(plan):
            if entry is query_type:
                index = next(query_indexes)
                operation = query_operations[index]
                if operation is None:
                    query = queries[index]
                    operation = Operation(query_type, query.collection, None, query)
                    query_operations[index] = operation
                plan[position] = operation
                continue
            index = next(document_indexes)
            if entry is read_type:
                operation = read_operations[index]
                if operation is None:
                    table, document_id = document_ids[index]
                    operation = Operation(read_type, table, document_id)
                    read_operations[index] = operation
                plan[position] = operation
                continue
            operation_type, payload, insert_number = entry
            table, document_id = document_ids[index]
            if operation_type is insert_type:
                new_id = f"{table}-new-{insert_number:06d}"
                plan[position] = Operation(
                    insert_type, table, new_id, None, {"_id": new_id, **payload}
                )
            else:
                plan[position] = Operation(operation_type, table, document_id, None, payload)
        return plan

    # -- internals ---------------------------------------------------------------------

    def _insert_payload(self) -> Dict:
        """The body of a freshly inserted document (sans ``_id``).

        Its RNG draw order (category, then author) is part of the pinned
        operation stream.  Callers bump ``_insert_counter`` first; the
        ``_id`` is added once the target table is known.
        """
        return {
            "title": f"New post {self._insert_counter}",
            "category": self._rng.randrange(self.dataset.spec.categories_per_table),
            "tags": ["example"],
            "views": 0,
            "author": f"user-{self._rng.randint(0, 499):03d}",
            "body": "freshly inserted",
        }

    def _partial_update(self) -> Dict:
        """A partial update touching the non-query fields most of the time.

        A fraction of updates changes the ``category`` field so that query
        result memberships actually change (triggering add/remove
        notifications in InvaliDB) rather than only ``change`` events.
        """
        if self._rng.random() < 0.25:
            return {
                "$set": {"category": self._rng.randrange(self.dataset.spec.categories_per_table)}
            }
        return {"$inc": {"views": 1}}

