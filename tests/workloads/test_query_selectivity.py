"""Query selectivity of the generated dataset.

Every query selects one ``category`` value.  The spec picks the number of
distinct values so that a query matches about ``average_result_size``
documents -- unless there are more queries than that would give, in which
case every query keeps a category of its own and results shrink.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.db import Database
from repro.workloads import DatasetSpec, generate_dataset


@pytest.mark.parametrize(
    "documents, queries, average, categories",
    [
        (100, 5, 10, 10),   # the result size decides
        (100, 20, 10, 20),  # more queries than that: one category each
        (95, 4, 10, 9),     # a partial last group rounds the count down
        (5, 3, 10, 3),      # fewer documents than one result
    ],
)
def test_categories_give_each_query_about_the_average_result(
    documents, queries, average, categories
):
    spec = DatasetSpec(
        num_tables=1,
        documents_per_table=documents,
        queries_per_table=queries,
        average_result_size=average,
    )
    assert spec.categories_per_table == categories
    dataset = generate_dataset(spec)
    (table,) = dataset.tables
    sizes = Counter(document["category"] for document in dataset.documents[table])
    assert set(sizes) == set(range(min(categories, documents)))
    # Round-robin assignment: result sizes differ by at most one document.
    assert max(sizes.values()) - min(sizes.values()) <= 1

    database = Database()
    dataset.load_into(database)
    results = [len(database.collection(table).find(query)) for query in dataset.queries[table]]
    assert len(results) == queries
    assert results == [sizes.get(category, 0) for category in range(queries)]
