"""Deterministic request tracing on the simulation's virtual clock.

A span is one named piece of work inside a request: the SDK root operation,
the cluster scatter, a pipeline stage, a replica selection, or a *cost span*
carrying the modelled seconds the simulator priced for a stage
(``net.origin``, ``resilience.backoff``, ...).

**Storage** (layout and price: ``docs/architecture.md``, "Observability").
:class:`TraceRecorder` is a write-only flat log of atoms, so recording creates
nothing the cyclic collector has to track.  ``_log`` holds five slots per
span -- ``parent_id, name, start, end, cost`` -- appended with one
``extend``; a span's id *is* its position (``index // 5``) and is the integer
handle ``begin`` / ``event`` return.  A cost span stores ``None`` for
``start`` / ``end``: it happens at its parent's ``end``, resolved on read.
``_attrs`` is one flat ``span_id, key, value`` list; a call passes at most
three attributes, positionally as ``key, value`` pairs (no ``dict`` is
built), and a key written twice keeps the last value.  The log is
append-only but for two slots: ``end`` closes an open span, and a completed
*root* may be finished exactly once (:meth:`TraceRecorder.finish_root`)
before the next root completes.  :class:`Span` is the read-side value type;
one exists only after :meth:`TraceRecorder.spans`.

Like ``repro.verify.history``, recording stays invisible to seeded results:
timestamps come only from the virtual clock, no random numbers are drawn
(request sampling is counter based), spans serialize to plain tuples
(``span_tuples``), and ``canonical_trace_bytes`` defines the byte-exact
wire form (floats via ``repr``) the determinism tests pin.

Because the virtual clock does not advance *inside* a synchronous request,
a span's ``start``/``end`` describe structure, not duration; the modelled
duration lives in ``cost`` (seconds), filled by the simulator's pricing
sites.  The analyzer (``repro.obs.analyze``) therefore attributes latency
by summing ``cost`` over a root's descendants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .config import check_sample_every

__all__ = [
    "Span",
    "TraceRecorder",
    "canonical_trace_bytes",
]

#: Slots per span in the flat log: ``parent_id, name, start, end, cost``.
_STRIDE = 5
_END = 3
_COST = 4


@dataclass(eq=False, slots=True)
class Span:
    """One node of a request's trace tree (read side only).

    Built from the recorder's log by :meth:`TraceRecorder.spans`; editing one
    does not write back to the log.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    cost: float
    attrs: dict


class TraceRecorder:
    """Collects spans for the current request stack.

    One recorder is shared by every layer of a deployment (clients, cluster,
    servers, replica groups); the open-span *stack* tracks the request the
    simulator is currently executing — the discrete-event model runs exactly
    one synchronous request at a time, so a single stack suffices.

    Sampling is decided once per root span (``request_index % sample_every``)
    and applies to the whole request: either every span of the request is
    recorded or none is.  Unsampled requests still push a ``None`` placeholder
    so ``begin``/``end`` stay balanced.
    """

    __slots__ = (
        "clock",
        "sample_every",
        "recording",
        "_log",
        "_attrs",
        "_stack",
        "_roots_seen",
        "_last_root",
    )

    def __init__(self, clock, sample_every: int = 1) -> None:
        self.clock = clock
        self.sample_every = check_sample_every(sample_every)
        #: Whether a request is on the stack *and* being sampled.
        self.recording = False
        self._log: list = []
        self._attrs: list = []
        self._stack: List[Optional[int]] = []
        self._roots_seen = 0
        self._last_root: Optional[int] = None

    # ------------------------------------------------------------------ write
    def begin(self, name: str) -> Optional[int]:
        """Open a span; returns its id, or ``None`` when the request is not sampled."""
        stack = self._stack
        if stack:
            parent = stack[-1]
        else:
            parent = None
            self.recording = (self._roots_seen % self.sample_every) == 0
            self._roots_seen += 1
        if not self.recording:
            stack.append(None)
            return None
        log = self._log
        span_id = len(log) // _STRIDE
        now = self.clock.now()
        log.extend((parent, name, now, now, 0.0))
        stack.append(span_id)
        return span_id

    def end(self, span: Optional[int] = None, key=None, value=None, key2=None, value2=None) -> None:
        """Close the innermost open span, which must be ``span``.

        ``span`` is what the matching :meth:`begin` returned (``None`` for an
        unsampled request, which pops its placeholder); any other handle
        means the instrumentation is unbalanced and raises.
        """
        stack = self._stack
        if not stack:
            raise RuntimeError("TraceRecorder.end() without a matching begin()")
        if stack[-1] != span:
            raise RuntimeError(f"end({span!r}): the innermost open span is {stack[-1]!r}")
        del stack[-1]
        if span is not None:
            self._log[span * _STRIDE + _END] = self.clock.now()
            if key is not None:
                if key2 is None:
                    self._attrs.extend((span, key, value))
                else:
                    self._attrs.extend((span, key, value, span, key2, value2))
        if not stack:
            self.recording = False
            self._last_root = span

    def event(
        self, name: str, key=None, value=None, key2=None, value2=None, key3=None, value3=None
    ) -> Optional[int]:
        """Record an instant child of the innermost open span.

        Dropped (returns ``None``) outside any request or when the request
        is unsampled — traces stay strictly request-scoped.
        """
        if not self.recording:
            return None
        log = self._log
        span_id = len(log) // _STRIDE
        now = self.clock.now()
        log.extend((self._stack[-1], name, now, now, 0.0))
        if key is not None:
            if key2 is None:
                self._attrs.extend((span_id, key, value))
            elif key3 is None:
                self._attrs.extend((span_id, key, value, span_id, key2, value2))
            else:
                self._attrs.extend(
                    (span_id, key, value, span_id, key2, value2, span_id, key3, value3)
                )
        return span_id

    def cost(self, name: str, seconds: float) -> None:
        """Hang a priced latency component off the last completed root.

        Called at the simulator's pricing sites (``net.origin``, ...) after the
        synchronous call has returned; a no-op when that request was not sampled.
        """
        root = self._last_root
        if root is not None:
            self._log.extend((root, name, None, None, seconds))

    def finish_root(self, end: float, cost: float, key: str, value) -> Optional[int]:
        """Price the last completed root: final ``end``, total ``cost``, one attribute.

        Consumes the root (returns its id, ``None`` when the request was not
        sampled), so a root is finished at most once.
        """
        root = self._last_root
        if root is None:
            return None
        self._last_root = None
        base = root * _STRIDE
        self._log[base + _END] = end
        self._log[base + _COST] = cost
        self._attrs.extend((root, key, value))
        return root

    # ------------------------------------------------------------------- read
    def _rows(self) -> Iterator[tuple]:
        """``(span_id, parent_id, name, start, end, cost, attrs dict)`` per span."""
        log = self._log
        attrs: Dict[int, dict] = {}
        for span_id, key, value in zip(*[iter(self._attrs)] * 3):
            attrs.setdefault(span_id, {})[key] = value
        for span_id, (parent, name, start, end, cost) in enumerate(zip(*[iter(log)] * _STRIDE)):
            if start is None:
                start = end = log[parent * _STRIDE + _END]
            yield span_id, parent, name, start, end, cost, attrs.get(span_id) or {}

    def spans(self) -> Tuple[Span, ...]:
        """Materialise every recorded span (the only place ``Span`` objects are built)."""
        return tuple(Span(*row) for row in self._rows())

    def span_tuples(self) -> Tuple[tuple, ...]:
        """All spans as picklable rows, attributes sorted by key (the export surface)."""
        return tuple(row[:6] + (tuple(sorted(row[6].items())),) for row in self._rows())

    def __len__(self) -> int:
        return len(self._log) // _STRIDE


def canonical_trace_bytes(rows: Iterable[tuple]) -> bytes:
    """Byte-exact wire form of span rows.

    Floats are rendered with ``repr`` (shortest round-trip form) and the
    JSON uses compact separators, mirroring ``repro.verify.history``'s
    canonical encoding, so equality of bytes is equality of traces.
    """
    payload = [
        [
            span_id,
            parent_id,
            name,
            repr(start),
            repr(end),
            repr(cost),
            [[key, repr(value) if isinstance(value, float) else value] for key, value in attrs],
        ]
        for span_id, parent_id, name, start, end, cost, attrs in rows
    ]
    return json.dumps(payload, separators=(",", ":"), sort_keys=False).encode("ascii")
