"""The generated datasets, pinned byte for byte.

``generate_dataset`` makes its draws straight from CPython's ``_randbelow``
instead of through ``randint`` and ``sample``; these digests, captured from
the ``randint`` / ``sample`` generator, pin that it still draws the same
numbers in the same order.  Every benchmark workload and golden summary
starts from one of these datasets.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.workloads.dataset import DatasetSpec, generate_dataset

#: label -> (spec, sha256 of ``json.dumps(dataset.documents, sort_keys=True)``).
GOLDEN = {
    "default": (
        DatasetSpec(),
        "6d31eeaacbbfcdaaef501f4a8f7c4087c248f19d7993223a373371dcbf4b5b81",
    ),
    # read_hot, write_churn and fleet_chaos share this one.
    "bench_small": (
        DatasetSpec(num_tables=4, documents_per_table=1000, queries_per_table=50),
        "db53ac06a5a8fb4b1b16ae28d77947b73aa5cb6c82fc12de29355e4433776ca9",
    ),
    "bench_origin_bound": (
        DatasetSpec(num_tables=4, documents_per_table=5000, queries_per_table=100),
        "b5fe503ca95e78d85fc4245fa6cc26b1e84998931b1f1c7f4a4160cc5788bb79",
    ),
    "tiny": (
        DatasetSpec(num_tables=2, documents_per_table=7, queries_per_table=3,
                    average_result_size=2, seed=3),
        "5ce6b1f4b452d65569dd14c3b7dd2b65afea3b655e47c8d8f44120fb8231bf69",
    ),
}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_generated_documents_are_pinned(label):
    spec, digest = GOLDEN[label]
    documents = generate_dataset(spec).documents
    assert hashlib.sha256(json.dumps(documents, sort_keys=True).encode()).hexdigest() == digest


def test_queries_select_one_category_each():
    spec = GOLDEN["tiny"][0]
    dataset = generate_dataset(spec)
    for table in dataset.tables:
        assert [(query.collection, query.criteria) for query in dataset.queries[table]] == [
            (table, {"category": category}) for category in range(spec.queries_per_table)
        ]
