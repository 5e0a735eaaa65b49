"""Operation histories for offline consistency checking.

A *history* is the complete, ordered record of everything the system did
during a simulated run, captured at two planes:

* **Client operations** — one event per SDK call with its invocation /
  completion interval, session id, the version it wrote or observed, the
  serving level, and degraded/hedged/retried markers.
* **Authoritative installs** — one event each time the origin (primary
  write stream, query fingerprint, scatter merge) establishes a new
  version token for a key.  These are the ground truth the Δ-atomicity
  checker scores client reads against, recorded at the same call sites
  that feed :class:`repro.simulation.staleness.StalenessAuditor`.

**Storage.**  :class:`HistoryRecorder` is a write-only flat log of atoms:
fifteen slots per event -- the fields of :class:`HistoryEvent`, in order --
appended with one ``extend``, so recording creates nothing the cyclic
collector has to track.  The log is append-only.  :class:`HistoryEvent`
(a named tuple, so checkers are pure functions over tuples and building one
from a log row is a single C call) is the read-side value type and exists
only after :meth:`HistoryRecorder.events` (or :func:`events_from_tuples`)
built it; :func:`canonical_bytes` gives a stable serialisation used to
assert byte-identity between the serial oracle and the parallel simulator.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "KIND_INSTALL",
    "KIND_OPERATION",
    "HistoryEvent",
    "HistoryRecorder",
    "canonical_bytes",
    "events_from_tuples",
]

KIND_OPERATION = "op"
KIND_INSTALL = "install"

#: Version recorded for observed/acknowledged deletes (no document body).
TOMBSTONE_VERSION = -1


class HistoryEvent(NamedTuple):
    """One entry in a recorded history.

    ``seq`` is the global record order assigned by the recorder — for a
    serial run that is exactly the deterministic event-loop order; for a
    parallel run events are renumbered after the partition-id-ordered
    merge so the same seed yields the same sequence regardless of worker
    count.  ``session`` is the client name for operations and ``""`` for
    server-side installs.  ``frontier`` snapshots the client's causal
    frontier *after* the operation completed.
    """

    seq: int
    kind: str
    session: str
    op: str
    key: str
    invoked: float
    completed: float
    etag: Optional[str]
    version: Optional[int]
    level: str
    frontier: float
    degraded: bool
    hedged: bool
    retried: bool
    fast_failed: bool

    def to_tuple(self) -> tuple:
        """Picklable, order-preserving flat form (used across processes)."""
        return tuple(self)

    def describe(self) -> str:
        """One legible timeline line (used by violation reports)."""
        span = f"[{self.invoked:.4f}, {self.completed:.4f}]"
        who = self.session or "server"
        head = f"#{self.seq:<4d} {span} {who:<10s} {self.op:<8s} {self.key}"
        bits: List[str] = []
        if self.version is not None:
            bits.append(f"v={self.version}")
        if self.etag is not None:
            bits.append(f"etag={self.etag}")
        if self.level:
            bits.append(f"level={self.level}")
        for flag in ("degraded", "hedged", "retried", "fast_failed"):
            if getattr(self, flag):
                bits.append(flag)
        return head + (" " + " ".join(bits) if bits else "")


#: Slots per event in the recorder's flat log: the fields, in order.
_STRIDE = len(HistoryEvent._fields)


def events_from_tuples(rows: Iterable[tuple]) -> Tuple[HistoryEvent, ...]:
    """Rebuild events from :meth:`HistoryEvent.to_tuple` rows."""
    return tuple(map(HistoryEvent._make, rows))


def canonical_bytes(events: Sequence[HistoryEvent]) -> bytes:
    """Stable byte serialisation of a history.

    Floats round-trip through ``repr`` (shortest exact form) so two
    histories are byte-identical iff every field is ``==``-identical.
    """
    rows = [
        [
            event.seq, event.kind, event.session, event.op, event.key,
            repr(event.invoked), repr(event.completed), event.etag,
            event.version, event.level, repr(event.frontier),
            event.degraded, event.hedged, event.retried, event.fast_failed,
        ]
        for event in events
    ]
    return json.dumps(rows, separators=(",", ":"), sort_keys=False).encode("ascii")


class HistoryRecorder:
    """Accumulates history events in deterministic record order.

    One recorder is shared by the simulator's clients and the
    server/cluster install sites; sequence numbers are assigned as events
    arrive, which in the discrete-event simulator is a pure function of
    the seed.  Consecutive identical install tokens per key are deduped,
    mirroring :meth:`StalenessAuditor.record_version`, so the install
    timeline matches the auditor's zone structure exactly.
    """

    __slots__ = ("_log", "_last_install")

    def __init__(self) -> None:
        self._log: list = []
        self._last_install: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._log) // _STRIDE

    def record_install(self, key: str, token: str, timestamp: float) -> None:
        """Record an authoritative version install for ``key``."""
        if self._last_install.get(key) == token:
            return
        self._last_install[key] = token
        log = self._log
        log.extend((
            len(log) // _STRIDE, KIND_INSTALL, "", "install", key, timestamp, timestamp,
            token, None, "origin", 0.0, False, False, False, False,
        ))

    def record_operation(
        self,
        *,
        session: str,
        op: str,
        key: str,
        invoked: float,
        completed: float,
        etag: Optional[str],
        version: Optional[int],
        level: str,
        frontier: float,
        degraded: bool = False,
        hedged: bool = False,
        retried: bool = False,
        fast_failed: bool = False,
    ) -> None:
        """Record one completed client operation."""
        log = self._log
        log.extend((
            len(log) // _STRIDE, KIND_OPERATION, session, op, key, invoked, completed,
            etag, version, level, frontier, degraded, hedged, retried, fast_failed,
        ))

    def event_tuples(self) -> Tuple[tuple, ...]:
        """Flat picklable ``HistoryEvent.to_tuple`` rows for cross-process merging."""
        return tuple(zip(*[iter(self._log)] * _STRIDE))

    def events(self) -> Tuple[HistoryEvent, ...]:
        """Materialise every recorded event (the only place events are built)."""
        return events_from_tuples(zip(*[iter(self._log)] * _STRIDE))
