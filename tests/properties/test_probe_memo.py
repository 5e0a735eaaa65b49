"""Property: memoised Bloom probes answer exactly like the hash positions.

``BloomFilter.contains`` / ``contains_all`` read a key's ``(byte, mask)``
probes from a memo shared by every filter of one geometry.  Over random
geometries, key sets and operations (``add_all``, ``union_all``,
``from_bytes``, ``copy``) each filter's verdicts must equal a reference
built from :func:`repro.bloom.hashing.positions` over a plain set of bits.
Every geometry probes the same keys, so a memo keyed by the key alone would
answer one geometry with another's positions; and every key is probed before
and after each ``add_all``, so a memo of verdicts instead of positions would
keep answering with the stale verdict.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.bloom import BloomFilter
from repro.bloom.hashing import positions

KEYS = st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=12, unique=True)
GEOMETRIES = st.lists(
    st.tuples(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=6)),
    min_size=2,
    max_size=4,
    unique=True,
)
OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(("add_all", "union_all", "from_bytes", "copy")),
        st.lists(st.integers(min_value=0, max_value=11), max_size=5),
    ),
    max_size=10,
)


class Subject:
    """One filter of one geometry beside its reference set of bits."""

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        self.filter = BloomFilter(num_bits, num_hashes)
        self.bits: set = set()

    def bits_of(self, key):
        return positions(key, self.filter.num_hashes, self.filter.num_bits)

    def apply(self, operation, keys):
        bloom = self.filter
        if operation == "add_all":
            bloom.add_all(keys)
            for key in keys:
                self.bits.update(self.bits_of(key))
        elif operation == "union_all":
            other = BloomFilter(bloom.num_bits, bloom.num_hashes)
            other.add_all(keys)
            self.filter = BloomFilter.union_all([bloom, other])
            for key in keys:
                self.bits.update(self.bits_of(key))
        elif operation == "from_bytes":
            self.filter = BloomFilter.from_bytes(bloom.to_bytes(), bloom.num_bits, bloom.num_hashes)
        else:
            self.filter = bloom.copy()

    def check(self, pool):
        expected = [all(bit in self.bits for bit in self.bits_of(key)) for key in pool]
        assert [self.filter.contains(key) for key in pool] == expected
        assert self.filter.contains_all(pool) == expected


@given(KEYS, GEOMETRIES, OPERATIONS)
@settings(max_examples=150, deadline=None)
def test_memoised_probes_equal_the_reference_positions(pool, geometries, operations):
    subjects = [Subject(num_bits, num_hashes) for num_bits, num_hashes in geometries]
    for subject in subjects:
        subject.check(pool)  # every key probed once before anything is added
    for operation, picks in operations:
        keys = [pool[pick % len(pool)] for pick in picks]
        for subject in subjects:
            subject.apply(operation, keys)
            subject.check(pool)


def test_a_key_probed_before_and_after_add_all_sees_its_new_bits():
    bloom = BloomFilter(64, 3)
    assert not bloom.contains("k") and bloom.contains_all(["k"]) == [False]
    bloom.add_all(["k"])
    assert bloom.contains("k") and bloom.contains_all(["k"]) == [True]
