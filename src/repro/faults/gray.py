"""Gray-failure state: shards that are *slow* or *flaky*, not dead.

PR 5's fault model is fail-stop -- a node is either serving or crashed.
Real outages are mostly grayer than that: a shard browns out (every
round-trip inflates 3-10x) or drops a fraction of requests while the rest
succeed.  :class:`GrayFailureState` is the cluster-side registry of those
conditions, mutated by :class:`~repro.faults.injector.FaultInjector` when a
:class:`~repro.faults.plan.FaultPlan` fires ``slow_shard`` / ``flaky_shard``
/ ``restore`` events:

* **slow** targets multiply latency.  The simulator consults
  :meth:`slow_factor` when pricing origin round-trips; the effective factor
  for a read is the max of the shard-wide factor (``"shard:N"``) and the
  serving node's factor (``"sN:nM"``).
* **flaky** targets drop requests from a *seeded per-target RNG substream*
  (``random.Random(f"{seed}:{target}")``), so a given plan drops exactly
  the same requests run-to-run.  A shard-level flaky target drops requests
  *before* admission (retry-safe, even for writes); a node-level flaky
  target drops the *response* after the primary applied the write (a lost
  ack -- never retried).

The state draws no randomness while both registries are empty
(:attr:`~GrayFailureState.active` is ``False``), which keeps no-fault runs
byte-identical.  ``active`` is a plain attribute kept current by every
mutation, so the request paths test it for free and call into this module
only while a condition is in force.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.errors import ConfigurationError

__all__ = ["GrayFailureState"]


class _ShardTargets(dict):
    """``shard_id -> "shard:N"``, each string built on first use only."""

    __slots__ = ()

    def __missing__(self, shard_id: int) -> str:
        target = self[shard_id] = f"shard:{shard_id}"
        return target


class GrayFailureState:
    """Registry of live slow/flaky conditions keyed by fault-plan target."""

    __slots__ = ("_seed", "_slow", "_flaky", "_rngs", "_shard_targets", "active")

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._slow: Dict[str, float] = {}
        self._flaky: Dict[str, float] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._shard_targets: Dict[int, str] = _ShardTargets()
        #: Any gray condition currently in force?
        self.active = False

    # -- mutation (driven by the fault injector) ----------------------------------------

    def set_slow(self, target: str, factor: float) -> None:
        if factor < 1.0:
            raise ConfigurationError("slow factor must be >= 1")
        self._slow[target] = float(factor)
        self.active = True

    def set_flaky(self, target: str, rate: float) -> None:
        if not 0.0 < rate <= 1.0:
            raise ConfigurationError("flaky drop rate must be in (0, 1]")
        self._flaky[target] = float(rate)
        self.active = True

    def restore(self, target: str) -> None:
        """Clear every gray condition on ``target`` (missing is a no-op)."""
        self._slow.pop(target, None)
        self._flaky.pop(target, None)
        self.active = bool(self._slow) or bool(self._flaky)

    # -- queries ------------------------------------------------------------------------

    def slow_factor(self, shard_id: int, node_id: Optional[str] = None) -> float:
        """Latency multiplier for a request served by ``node_id`` on a shard."""
        if not self._slow:
            return 1.0
        factor = self._slow.get(self._shard_targets[shard_id], 1.0)
        if node_id is not None:
            factor = max(factor, self._slow.get(node_id, 1.0))
        return factor

    def should_drop_request(self, shard_id: int) -> bool:
        """Seeded pre-admission drop decision for a shard-level flaky target."""
        if not self._flaky:
            return False
        target = self._shard_targets[shard_id]
        rate = self._flaky.get(target, 0.0)
        if rate <= 0.0:
            return False
        return self._rng(target).random() < rate

    def should_drop_response(self, node_id: Optional[str]) -> bool:
        """Seeded post-apply response (ack) drop for a node-level flaky target."""
        if not self._flaky or node_id is None:
            return False
        rate = self._flaky.get(node_id, 0.0)
        if rate <= 0.0:
            return False
        return self._rng(node_id).random() < rate

    def _rng(self, target: str) -> random.Random:
        rng = self._rngs.get(target)
        if rng is None:
            # str seeds hash via sha512 in CPython's random, stable across
            # processes -- unlike hash(), which PYTHONHASHSEED perturbs.
            rng = random.Random(f"{self._seed}:{target}")
            self._rngs[target] = rng
        return rng

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GrayFailureState(slow={self._slow!r}, flaky={self._flaky!r})"
