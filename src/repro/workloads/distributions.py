"""Request distribution: Zipfian key selection.

The Zipfian generator follows the standard YCSB construction (Gray et al.'s
rejection-free algorithm) so that popularity skew matches what the paper's
workload generator produces.  Ranks are scrambled: the popular items are
spread across the keyspace, avoiding accidental correlation between key id
and popularity.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.bloom.hashing import fnv1a_64

#: The FNV-1a state after ``b"zipf-"``.  FNV-1a is a left fold over the
#: bytes, so continuing from it over a rank's digits (``b"%d" % rank``, the
#: ASCII of ``f"{rank}"`` without an ``encode`` call) gives exactly
#: ``stable_uint64(f"zipf-{rank}")`` without a trip through that function's
#: process-wide memo: the generator's ``scramble`` table is the only memo.
ZIPF_PREFIX_STATE = fnv1a_64(b"zipf-")


class ZipfianGenerator:
    """Scrambled Zipfian selection with configurable skew constant (YCSB algorithm)."""

    def __init__(
        self,
        item_count: int,
        constant: float = 0.99,
        rng: Optional[random.Random] = None,
    ) -> None:
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        if constant <= 0 or constant >= 2:
            raise ValueError("zipfian constant must lie in (0, 2)")
        if abs(constant - 1.0) < 1e-9:
            # The closed-form zeta approximation below divides by (1 - theta).
            constant = 1.0 - 1e-6
        self._item_count = item_count
        self._constant = constant
        self._rng = rng if rng is not None else random.Random(0)
        #: Scrambled index per rank, filled on a rank's first draw.
        self._scramble: List[Optional[int]] = [None] * item_count

        self._zeta_n = self._zeta(item_count, constant)
        self._theta = constant
        self._alpha = 1.0 / (1.0 - self._theta)
        self._zeta2 = self._zeta(2, constant)
        # With two items or fewer every draw lands on rank 0 or 1 before the
        # eta branch (zeta_n is the rank-1 threshold), and zeta_n == zeta2
        # would divide by zero; 0.0 clamps a stray draw to the top rank.
        self._eta = (
            (1 - (2.0 / item_count) ** (1 - self._theta)) / (1 - self._zeta2 / self._zeta_n)
            if item_count > 2
            else 0.0
        )

    @staticmethod
    def _zeta(count: int, theta: float) -> float:
        return sum([1.0 / (i**theta) for i in range(1, count + 1)])

    def next_indexes(self, count: int) -> List[int]:
        """Draw ``count`` indexes in one pass; same stream as single draws.

        Each draw consumes exactly one uniform variate; the YCSB constants
        are bound once, and a rank's scrambled index is hashed on its first
        draw only.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        rng_random = self._rng.random
        zeta_n = self._zeta_n
        theta_threshold = 1.0 + 0.5**self._theta
        item_count = self._item_count
        eta = self._eta
        alpha = self._alpha
        scramble = self._scramble
        top = item_count - 1
        indexes: List[int] = [0] * count
        for position in range(count):
            u = rng_random()
            uz = u * zeta_n
            if uz < 1.0:
                rank = 0
            elif uz < theta_threshold:
                rank = 1
            else:
                rank = int(item_count * (eta * u - eta + 1) ** alpha)
                if rank > top:
                    rank = top
            index = scramble[rank]
            if index is None:
                index = scramble[rank] = (
                    fnv1a_64(b"%d" % rank, ZIPF_PREFIX_STATE) % item_count
                )
            indexes[position] = index
        return indexes
