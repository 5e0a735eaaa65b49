"""The paper's default Bloom filter size."""

from __future__ import annotations

from repro.bloom.sizing import PAPER_DEFAULT_BITS


def test_paper_default_fits_initial_congestion_window():
    # Ten 1460-byte TCP segments: 14.6 KB of flat filter on the wire.
    assert PAPER_DEFAULT_BITS // 8 == 14_600
