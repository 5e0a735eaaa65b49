"""Request distributions: Zipfian, uniform and hotspot key selection.

The Zipfian generator follows the standard YCSB construction (Gray et al.'s
rejection-free algorithm) so that popularity skew matches what the paper's
workload generator produces.  A scrambled variant spreads the popular items
across the keyspace, avoiding accidental correlation between key id and
popularity.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Protocol

from repro.bloom.hashing import stable_uint64


class KeyDistribution(Protocol):
    """Anything that yields item indexes in ``[0, item_count)``."""

    def next_index(self) -> int:
        ...

    def next_indexes(self, count: int) -> List[int]:
        ...

    @property
    def item_count(self) -> int:
        ...


class UniformGenerator:
    """Uniformly random selection over ``item_count`` items."""

    def __init__(self, item_count: int, rng: Optional[random.Random] = None) -> None:
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        self._item_count = item_count
        self._rng = rng if rng is not None else random.Random(0)

    @property
    def item_count(self) -> int:
        return self._item_count

    def next_index(self) -> int:
        return self._rng.randrange(self._item_count)

    def next_indexes(self, count: int) -> List[int]:
        """Draw ``count`` indexes; same stream as ``count`` single draws."""
        if count < 0:
            raise ValueError("count must be non-negative")
        randrange = self._rng.randrange
        item_count = self._item_count
        return [randrange(item_count) for _ in range(count)]


class ZipfianGenerator:
    """Zipfian selection with configurable skew constant (YCSB algorithm)."""

    def __init__(
        self,
        item_count: int,
        constant: float = 0.99,
        rng: Optional[random.Random] = None,
        scrambled: bool = True,
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
        self._scrambled = scrambled
        #: Scrambled index per rank, filled on a rank's first draw.
        self._scramble: List[Optional[int]] = [None] * item_count if scrambled else []

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
        return sum(1.0 / (i**theta) for i in range(1, count + 1))

    @property
    def item_count(self) -> int:
        return self._item_count

    @property
    def constant(self) -> float:
        return self._constant

    def next_index(self) -> int:
        """Draw the next item index (0 is the most popular unscrambled item)."""
        return self.next_indexes(1)[0]

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
        scrambled = self._scrambled
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
            if scrambled:
                index = scramble[rank]
                if index is None:
                    index = scramble[rank] = stable_uint64(f"zipf-{rank}") % item_count
                rank = index
            indexes[position] = rank
        return indexes


class HotspotGenerator:
    """A fraction of requests targets a small hot set, the rest is uniform."""

    def __init__(
        self,
        item_count: int,
        hot_fraction: float = 0.2,
        hot_probability: float = 0.8,
        rng: Optional[random.Random] = None,
    ) -> None:
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        if not 0 < hot_fraction <= 1:
            raise ValueError("hot_fraction must lie in (0, 1]")
        if not 0 <= hot_probability <= 1:
            raise ValueError("hot_probability must lie in [0, 1]")
        self._item_count = item_count
        self._hot_items = max(1, int(math.ceil(item_count * hot_fraction)))
        self._hot_probability = hot_probability
        self._rng = rng if rng is not None else random.Random(0)

    @property
    def item_count(self) -> int:
        return self._item_count

    def next_index(self) -> int:
        if self._rng.random() < self._hot_probability:
            return self._rng.randrange(self._hot_items)
        return self._rng.randrange(self._item_count)

    def next_indexes(self, count: int) -> List[int]:
        """Draw ``count`` indexes; same stream as ``count`` single draws."""
        if count < 0:
            raise ValueError("count must be non-negative")
        rng_random = self._rng.random
        randrange = self._rng.randrange
        hot_probability = self._hot_probability
        hot_items = self._hot_items
        item_count = self._item_count
        return [
            randrange(hot_items) if rng_random() < hot_probability else randrange(item_count)
            for _ in range(count)
        ]
