"""Tests for the Bloom filter hashing helpers."""

from __future__ import annotations

import pytest

from repro.bloom import hashing


class TestFnv1a:
    def test_deterministic(self):
        assert hashing.fnv1a_64(b"quaestor") == hashing.fnv1a_64(b"quaestor")

    def test_different_inputs_differ(self):
        assert hashing.fnv1a_64(b"a") != hashing.fnv1a_64(b"b")

    def test_stays_within_64_bits(self):
        value = hashing.fnv1a_64(b"some arbitrarily long input " * 10)
        assert 0 <= value < 2**64


class TestHashPair:
    def test_second_hash_is_odd(self):
        for key in ("a", "b", "record:posts/1", "query:xyz"):
            _, h2 = hashing.hash_pair(key)
            assert h2 % 2 == 1

    def test_accepts_bytes_and_str(self):
        assert hashing.hash_pair("key") == hashing.hash_pair(b"key")


class TestPositions:
    def test_returns_requested_number_of_positions(self):
        assert len(hashing.positions("key", 5, 1000)) == 5

    def test_positions_in_range(self):
        for position in hashing.positions("key", 10, 97):
            assert 0 <= position < 97

    def test_deterministic(self):
        assert hashing.positions("key", 4, 128) == hashing.positions("key", 4, 128)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            hashing.positions("key", 0, 10)
        with pytest.raises(ValueError):
            hashing.positions("key", 1, 0)


class TestSpread:
    def test_stable_uint64_is_deterministic(self):
        assert hashing.stable_uint64("x") == hashing.stable_uint64("x")
