"""Golden hash vectors pinning filter positions and placement hashes.

* ``fnv1a_64`` / ``stable_uint64`` / ``mixed_uint64`` are byte-for-byte what
  the original per-byte FNV-1a implementation produced, so consistent-hash
  ring placement and grid partitioning never move.
* The blake2 vectors pin the Bloom filters' ``(h1, h2)`` pair, their probe
  positions and a serialized payload, so any change to which bits a key sets
  is caught -- through :func:`hashing.positions` and through the probe loop
  each filter class inlines.
"""

from __future__ import annotations

import pytest

from repro.bloom import CountingBloomFilter, ExpiringBloomFilter, hashing
from repro.bloom.bloom_filter import BloomFilter

#: key -> (fnv1a_64, mixed_uint64) captured from the original implementation.
LEGACY_VECTORS = {
    "record:posts/1": (5211827933553280589, 8864720829329768974),
    "record:posts/42": (14819961067862807348, 13250860115081672949),
    "record:users/alice": (14440190778667258321, 9616544398544815375),
    'query:{"c":"posts","l":null,"o":0,"q":{"tags":"example"},"s":[]}': (
        10835346583316893828,
        17172030000890905864,
    ),
    "a": (12638187200555641996, 9413272369427828315),
    "quaestor": (15810328381429036443, 5400911916018903619),
    "key-0": (8147957248299270233, 1734865316076021129),
    "": (14695981039346656037, 17280346270528514342),
    "unicode-éèü": (862559248993790971, 1295929929781238761),
}

#: key -> (h1, h2, positions(key, 4, 11680)) of the blake2 pair.
BLAKE2_VECTORS = {
    "record:posts/1": (
        11330858912190745905,
        17316395185222204361,
        [9585, 4826, 67, 6988],
    ),
    "record:posts/42": (
        6686027711575306086,
        9514964633752832705,
        [166, 7431, 3016, 10281],
    ),
    "record:users/alice": (
        12920567023190652299,
        12981859889237157743,
        [9739, 11002, 585, 1848],
    ),
    'query:{"c":"posts","l":null,"o":0,"q":{"tags":"example"},"s":[]}': (
        11687478497307920600,
        8346702662611760229,
        [3800, 2589, 1378, 167],
    ),
    "a": (2865237616951003007, 3018927179322247551, [10367, 3678, 8669, 1980]),
    "quaestor": (
        18121343791218615870,
        11382520936468759985,
        [9470, 10415, 11360, 625],
    ),
    "key-0": (1740346382425233407, 16023458911895561953, [7967, 10400, 1153, 3586]),
    "": (14620488971855052096, 5642315946650924657, [2976, 5073, 7170, 9267]),
    "unicode-éèü": (
        7537462108870571083,
        10813466631137359989,
        [523, 4352, 8181, 330],
    ),
}

CORPUS = list(LEGACY_VECTORS)

#: ``BloomFilter(512, 4).add_all(CORPUS).to_bytes().hex()``.
GOLDEN_PAYLOAD_HEX = (
    "8000000084000040000800000002002000100800040000000900000101010044"
    "0000000000002220010002004000008000080000050602000200000100800090"
)


class TestLegacyVectors:
    @pytest.mark.parametrize("key", CORPUS)
    def test_fnv1a_64_pinned(self, key):
        assert hashing.fnv1a_64(key.encode("utf-8")) == LEGACY_VECTORS[key][0]

    @pytest.mark.parametrize("key", CORPUS)
    def test_stable_and_mixed_uint64_pinned(self, key):
        expected_fnv, expected_mixed = LEGACY_VECTORS[key]
        assert hashing.stable_uint64(key) == expected_fnv
        assert hashing.mixed_uint64(key) == expected_mixed


class TestBlake2Vectors:
    @pytest.mark.parametrize("key", CORPUS)
    def test_hash_pair_pinned(self, key):
        h1, h2, _ = BLAKE2_VECTORS[key]
        assert hashing.hash_pair(key) == (h1, h2)

    @pytest.mark.parametrize("key", CORPUS)
    def test_positions_pinned(self, key):
        assert hashing.positions(key, 4, 11680) == BLAKE2_VECTORS[key][2]


    @pytest.mark.parametrize("key", CORPUS)
    def test_bytes_spelling_hashes_like_str(self, key):
        """``str`` and ``bytes`` keys occupy separate memo slots, same pair."""
        h1, h2, _ = BLAKE2_VECTORS[key]
        assert hashing.hash_pair(key.encode("utf-8")) == (h1, h2)


class TestPlacementSpellings:
    @pytest.mark.parametrize("key", CORPUS)
    def test_bytes_spelling_places_like_str(self, key):
        expected_fnv, expected_mixed = LEGACY_VECTORS[key]
        assert hashing.stable_uint64(key.encode("utf-8")) == expected_fnv
        assert hashing.mixed_uint64(key.encode("utf-8")) == expected_mixed


def pinned_bits(key):
    return sorted(set(BLAKE2_VECTORS[key][2]))


class TestInlinedProbeLoops:
    """Every filter inlines the probe loop over the memoised pair; each copy
    must touch exactly the pinned positions of :func:`hashing.positions`."""

    @pytest.mark.parametrize("key", CORPUS)
    def test_bloom_add_sets_exactly_the_pinned_positions(self, key):
        bloom = BloomFilter(11680, 4)
        bloom.add(key)
        assert list(bloom.iter_set_bits()) == pinned_bits(key)

    @pytest.mark.parametrize("key", CORPUS)
    def test_counting_add_raises_exactly_the_pinned_counters(self, key):
        counting = CountingBloomFilter(11680, 4)
        counting.add(key)
        assert counting.nonzero_slots() == len(pinned_bits(key))
        assert all(counting.counter(position) == 1 for position in pinned_bits(key))
        assert list(counting.to_flat().iter_set_bits()) == pinned_bits(key)

    @pytest.mark.parametrize("key", CORPUS)
    def test_expiring_flat_copy_sets_exactly_the_pinned_positions(self, key):
        ebf = ExpiringBloomFilter(11680)
        ebf.report_read(key, ttl=10.0, read_time=0.0)
        assert ebf.report_invalidation(key, 1.0)
        assert list(ebf.to_flat(1.0).iter_set_bits()) == pinned_bits(key)

    @pytest.mark.parametrize("key", CORPUS)
    def test_contains_needs_every_pinned_position(self, key):
        payload = bytearray(11680 // 8)
        for position in pinned_bits(key):
            payload[position >> 3] |= 1 << (position & 7)
        bloom = BloomFilter.from_bytes(bytes(payload), 11680, 4)
        assert bloom.contains(key) and bloom.contains_all([key]) == [True]
        for position in pinned_bits(key):
            missing = bytearray(payload)
            missing[position >> 3] &= ~(1 << (position & 7)) & 0xFF
            holey = BloomFilter.from_bytes(bytes(missing), 11680, 4)
            assert not holey.contains(key)
            assert holey.contains_all([key]) == [False]


class TestSerializedPayloads:
    def test_payload_byte_identity(self):
        """Building the corpus filter reproduces the pinned payload exactly."""
        bloom = BloomFilter(512, 4)
        bloom.add_all(CORPUS)
        assert bloom.to_bytes().hex() == GOLDEN_PAYLOAD_HEX

    def test_counting_flat_copy_reproduces_the_payload(self):
        counting = CountingBloomFilter(512, 4)
        counting.add_all(CORPUS)
        assert counting.to_flat().to_bytes().hex() == GOLDEN_PAYLOAD_HEX

    def test_expiring_flat_copy_reproduces_the_payload(self):
        ebf = ExpiringBloomFilter(512)
        ebf.report_read_many(CORPUS, ttl=10.0, read_time=0.0)
        for key in CORPUS:
            assert ebf.report_invalidation(key, 1.0)
        assert ebf.to_flat(1.0).to_bytes().hex() == GOLDEN_PAYLOAD_HEX

    def test_batch_and_single_add_set_identical_bits(self):
        single = BloomFilter(512, 4)
        for key in CORPUS:
            single.add(key)
        assert single.to_bytes().hex() == GOLDEN_PAYLOAD_HEX

    def test_payload_roundtrip_membership(self):
        """The pinned payload answers membership for its corpus when loaded."""
        restored = BloomFilter.from_bytes(bytes.fromhex(GOLDEN_PAYLOAD_HEX), 512, 4)
        assert all(restored.contains_all(CORPUS))
