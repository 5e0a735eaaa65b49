"""Differential: the flat-log recorders against the object recorders they replaced.

PR 20 turned ``TraceRecorder`` and ``HistoryRecorder`` into write-only flat
logs with an integer-handle write API.  The recorders they replaced -- one
``Span`` (with an attrs ``dict``) per span, one ``HistoryEvent`` per event --
are kept *here*, verbatim in behaviour, as the reference: hypothesis
generates write sequences (nested spans, unsampled roots, events inside and
outside requests, duplicate attribute keys where the last write must win,
cost children, roots finished once / twice / never, a clock that moves
between calls) and both must export identical ``span_tuples()`` /
``events()``.

The reference is driven the way the parent's simulator drove it: pricing
sites collected ``(stage, seconds)`` parts, and finishing a root meant
``take_last_root()``, attribute writes on the ``Span``, then one ``attach``
per part.
"""

from __future__ import annotations

from typing import List, Optional

from hypothesis import given, settings, strategies as st

from repro.obs import TraceRecorder
from repro.simulation.staleness import StalenessAuditor
from repro.verify.history import (
    KIND_INSTALL,
    KIND_OPERATION,
    HistoryEvent,
    HistoryRecorder,
)


def row(span) -> tuple:
    """A span as its picklable row (what ``TraceRecorder.span_tuples`` emits)."""
    return (
        span.span_id, span.parent_id, span.name, span.start, span.end, span.cost,
        tuple(sorted(span.attrs.items())),
    )


class FakeClock:
    def __init__(self) -> None:
        self.time = 0.0

    def now(self) -> float:
        return self.time


# -- reference: the parent commit's object-per-record trace recorder ---------------------


class RefSpan:
    def __init__(self, span_id, parent_id, name, start, end=None, cost=0.0, attrs=None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = start if end is None else end
        self.cost = cost
        self.attrs = {} if attrs is None else attrs


class RefTraceRecorder:
    def __init__(self, clock, sample_every: int = 1) -> None:
        self.clock = clock
        self.sample_every = sample_every
        self._spans: List[RefSpan] = []
        self._stack: List[Optional[RefSpan]] = []
        self._roots_seen = 0
        self._recording = False
        self._last_root: Optional[RefSpan] = None

    def begin(self, name, **attrs):
        if not self._stack:
            self._recording = (self._roots_seen % self.sample_every) == 0
            self._roots_seen += 1
        if not self._recording:
            self._stack.append(None)
            return None
        parent = self._stack[-1] if self._stack else None
        span = RefSpan(
            len(self._spans), None if parent is None else parent.span_id, name,
            self.clock.now(), attrs=dict(attrs),
        )
        self._spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span=None, **attrs):
        popped = self._stack.pop()
        if popped is None:
            return
        popped.end = self.clock.now()
        if attrs:
            popped.attrs.update(attrs)
        if not self._stack:
            self._last_root = popped

    def event(self, name, cost=0.0, **attrs):
        if not self._stack or not self._recording:
            return None
        parent = self._stack[-1]
        if parent is None:
            return None
        span = RefSpan(
            len(self._spans), parent.span_id, name, self.clock.now(), cost=cost, attrs=dict(attrs)
        )
        self._spans.append(span)
        return span

    def attach(self, parent, name, cost=0.0, **attrs):
        span = RefSpan(
            len(self._spans), parent.span_id, name, parent.end, end=parent.end, cost=cost,
            attrs=dict(attrs),
        )
        self._spans.append(span)
        return span

    def take_last_root(self):
        root, self._last_root = self._last_root, None
        return root

    def span_tuples(self):
        return tuple(row(span) for span in self._spans)


class RefDriver:
    """Drives :class:`RefTraceRecorder` through the new write API's vocabulary."""

    def __init__(self, clock, sample_every: int) -> None:
        self.tracer = RefTraceRecorder(clock, sample_every)
        self._open: list = []
        self._root = None  # the completed, not yet finished root
        self._parts: list = []

    def _flush_parts(self) -> None:
        # Cost children of a root nobody priced: at its unpriced end.
        for stage, seconds in self._parts:
            self.tracer.attach(self._root, stage, cost=seconds)
        self._parts = []

    def begin(self, name) -> None:
        if not self._open:
            self._flush_parts()
        self._open.append(self.tracer.begin(name))

    def end(self, pairs) -> None:
        span = self._open.pop()
        # A skipped request records nothing, attributes included.
        self.tracer.end(span, **(dict(pairs) if span is not None else {}))
        if not self._open:
            self._root = self.tracer.take_last_root() if span is not None else None

    def event(self, name, pairs) -> None:
        self.tracer.event(name, **dict(pairs))

    def cost(self, stage, seconds) -> None:
        if self._root is not None:
            self._parts.append((stage, seconds))

    def finish_root(self, end, cost, key, value) -> None:
        root = self._root
        if root is None:
            return
        root.end = end
        root.cost = cost
        root.attrs[key] = value
        self._flush_parts()
        self._root = None

    def span_tuples(self):
        self._flush_parts()
        return self.tracer.span_tuples()


# -- generated write sequences -----------------------------------------------------------

NAMES = st.sampled_from(["sdk.read", "sdk.query", "cluster.read", "sdk.fetch", "net.origin"])
KEYS = st.sampled_from(["key", "level", "op", "shard"])
VALUES = st.one_of(st.integers(-3, 3), st.booleans(), st.sampled_from(["cdn", "origin", "k/1"]))
SECONDS = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def pairs(limit: int):
    return st.lists(st.tuples(KEYS, VALUES), max_size=limit)


COMMANDS = st.one_of(
    st.tuples(st.just("begin"), NAMES),
    st.tuples(st.just("end"), pairs(2)),
    st.tuples(st.just("event"), NAMES, pairs(3)),
    st.tuples(st.just("cost"), NAMES, SECONDS),
    st.tuples(st.just("finish"), SECONDS, SECONDS, KEYS, VALUES),
    st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=2.0)),
)


@settings(max_examples=250, deadline=None)
@given(sample_every=st.integers(1, 3), program=st.lists(COMMANDS, max_size=40))
def test_trace_log_matches_the_object_recorder(sample_every, program):
    clock = FakeClock()
    tracer = TraceRecorder(clock, sample_every)
    reference = RefDriver(clock, sample_every)
    open_handles: list = []
    for command, *args in program:
        if command == "begin":
            open_handles.append(tracer.begin(*args))
            reference.begin(*args)
        elif command == "end":
            if not open_handles:
                continue
            (attributes,) = args
            tracer.end(open_handles.pop(), *[item for pair in attributes for item in pair])
            reference.end(attributes)
        elif command == "event":
            name, attributes = args
            tracer.event(name, *[item for pair in attributes for item in pair])
            reference.event(name, attributes)
        elif command in ("cost", "finish") and open_handles:
            continue  # pricing happens between requests, never inside one
        elif command == "cost":
            tracer.cost(*args)
            reference.cost(*args)
        elif command == "finish":
            tracer.finish_root(*args)
            reference.finish_root(*args)
        else:
            clock.time += args[0]
    while open_handles:  # close what the program left open
        tracer.end(open_handles.pop())
        reference.end([])
    rows = tracer.span_tuples()
    assert rows == reference.span_tuples()
    assert len(tracer) == len(rows)
    # The read-side objects are the same rows again.
    assert tuple(row(span) for span in tracer.spans()) == rows


# -- history -----------------------------------------------------------------------------


class RefHistoryRecorder:
    """The object recorder: one frozen ``HistoryEvent`` per record, with the
    repeat rule the flat log gets from the auditor in front of it."""

    def __init__(self) -> None:
        self._events: List[HistoryEvent] = []
        self._last_install: dict = {}

    def record_install(self, key, token, timestamp) -> None:
        if self._last_install.get(key) == token:
            return
        self._last_install[key] = token
        self._events.append(
            HistoryEvent(
                seq=len(self._events), kind=KIND_INSTALL, session="", op="install", key=key,
                invoked=timestamp, completed=timestamp, etag=token, version=None,
                level="origin", frontier=0.0, degraded=False, hedged=False, retried=False,
                fast_failed=False,
            )
        )

    def record_operation(
        self, *, degraded=False, hedged=False, retried=False, fast_failed=False, **fields
    ) -> None:
        self._events.append(
            HistoryEvent(
                seq=len(self._events), kind=KIND_OPERATION, degraded=degraded, hedged=hedged,
                retried=retried, fast_failed=fast_failed, **fields,
            )
        )

    def events(self):
        return tuple(self._events)


HISTORY_KEYS = st.sampled_from(["record:posts/p1", "record:posts/p2", "query:q1"])
TOKENS = st.sampled_from(['"a"', '"b"', '"c"'])
TIMES = st.floats(min_value=0.0, max_value=50.0)
INSTALLS = st.tuples(st.just("install"), HISTORY_KEYS, TOKENS, TIMES)
OPERATIONS = st.tuples(
    st.just("operation"),
    st.fixed_dictionaries(
        {
            "session": st.sampled_from(["client-0", "client-1"]),
            "op": st.sampled_from(["read", "query", "update", "delete"]),
            "key": HISTORY_KEYS,
            "invoked": TIMES,
            "completed": TIMES,
            "etag": st.one_of(st.none(), TOKENS),
            "version": st.one_of(st.none(), st.integers(-1, 9)),
            "level": st.sampled_from(["client", "cdn", "origin", "error", "stale-if-error"]),
            "frontier": TIMES,
        },
        optional={
            "degraded": st.booleans(),
            "hedged": st.booleans(),
            "retried": st.booleans(),
            "fast_failed": st.booleans(),
        },
    ),
)


@settings(max_examples=200, deadline=None)
@given(program=st.lists(st.one_of(INSTALLS, OPERATIONS), max_size=30))
def test_history_log_matches_the_object_recorder(program):
    recorder, reference = HistoryRecorder(), RefHistoryRecorder()
    auditor = StalenessAuditor(recorder=recorder)
    for command, *args in program:
        if command == "install":
            auditor.record_version(*args)
            reference.record_install(*args)
        else:
            recorder.record_operation(**args[0])
            reference.record_operation(**args[0])
    expected = reference.events()
    assert recorder.events() == expected
    assert len(recorder) == len(expected)
