"""The generator's inlined draws are CPython's ``Random._randbelow``, draw for draw.

``generate_dataset`` writes ``_randbelow(n)`` out as ``getrandbits`` calls
with each bound's bit length worked out once.  Every draw it makes can be
read back off the documents it built: the tag count, each tag's position
in the pool as the sample leaves it, the views, the author's number and the
body's number.  Read back in order, they must be the very numbers a
``random.Random(seed)._randbelow`` of the same bounds gives -- for every
bound the generator uses, at least ``MIN_DRAWS`` times each, under several
seeds.  The byte goldens (``test_dataset_golden.py``) pin the default seed's
datasets whole; this pins the draw itself for any seed.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.workloads import dataset as dataset_module
from repro.workloads.dataset import DatasetSpec, generate_dataset

BOUNDS = (3, 8, 9, 10, 500, 10_001, 1_000_001)
MIN_DRAWS = 10_000
#: Posts per seed: a third of them have three tags, so the pool's last pick
#: (bound 8) is drawn about 10 700 times.
POSTS = 32_000
BODY_PREFIX = "Lorem ipsum dolor sit amet ("


def _draws_read_back(documents) -> list:
    """``(bound, value)`` of every draw the generator made, in draw order."""
    pool_size = len(dataset_module._TAG_POOL)
    draws = []
    for document in documents:
        tags = document["tags"]
        draws.append((3, len(tags) - 1))
        pool = list(dataset_module._TAG_POOL)
        for pick, tag in enumerate(tags):
            bound = pool_size - pick
            position = pool.index(tag, 0, bound)
            draws.append((bound, position))
            pool[position] = pool[bound - 1]
        draws.append((10_001, document["views"]))
        draws.append((500, int(document["author"].removeprefix("user-"))))
        draws.append((1_000_001, int(document["body"].removeprefix(BODY_PREFIX)[:-1])))
    return draws


@pytest.mark.parametrize("seed", [0, 7, 2**31 + 5])
def test_inlined_draws_are_randbelow_draws(seed):
    spec = DatasetSpec(num_tables=1, documents_per_table=POSTS, queries_per_table=1, seed=seed)
    draws = _draws_read_back(generate_dataset(spec).documents["table_00"])
    per_bound = Counter(bound for bound, _ in draws)
    assert sorted(per_bound) == sorted(BOUNDS)
    assert min(per_bound.values()) >= MIN_DRAWS, per_bound
    reference = random.Random(seed)._randbelow
    assert [value for _, value in draws] == [reference(bound) for bound, _ in draws]
