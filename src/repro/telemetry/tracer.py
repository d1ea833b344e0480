"""Span-based tracing of the DYFLOW control loop.

A :class:`TraceSpan` is one timed piece of work (a Decision tick, a plan
execution, a task launch) carrying *two* clocks: the runtime's own time
(simulated seconds on the event clock, or seconds since start for the
threaded driver) and wall-clock seconds.  Spans nest through parent ids,
so a plan execution contains its per-op child spans and a service tick
contains its stage spans.

:class:`Tracer` is the recording object every instrumented component
holds; :class:`NullTracer` is the twin a run without telemetry gets,
whose every operation is a shared no-op, so instrumentation left in
place costs near-zero.  Components default to the module-level
:data:`NULL_TRACER` and never need a None check.

The tracer writes to a :class:`~repro.sim.trace.RunLog` — the launcher's,
once a runtime attaches it — finished spans by reference, ``point`` and
``metrics`` events as dicts; :meth:`Tracer.flush` writes that log as JSONL.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import TelemetryError
from repro.sim.trace import RunLog, as_record
from repro.telemetry.metrics import MetricsRegistry, NullMetrics


@dataclass
class TraceSpan:
    """A timed, attributed interval with parent/child nesting.

    ``start``/``end`` are runtime-clock stamps (sim time under the
    simulated driver); ``wall_start``/``wall_end`` are wall-clock stamps
    from :func:`time.perf_counter`.  ``end`` is None while open.
    """

    name: str
    category: str
    span_id: int
    parent_id: int | None
    start: float
    wall_start: float
    end: float | None = None
    wall_end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        """Runtime-clock duration; raises while the span is open."""
        if self.end is None:
            raise TelemetryError(f"span {self.name!r} still open")
        return self.end - self.start

    @property
    def wall_duration(self) -> float:
        if self.wall_end is None:
            raise TelemetryError(f"span {self.name!r} still open")
        return self.wall_end - self.wall_start

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "category": self.category,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "wall_start": self.wall_start,
            "wall_end": self.wall_end,
            "attrs": dict(self.attrs),
        }

    def to_record(self) -> dict[str, Any]:
        return {"kind": "span", "time": self.end, **self.to_dict()}


# The span the NullTracer hands out: already closed, so end_span ignores it.
_DROPPED = TraceSpan(
    name="<dropped>", category="dropped", span_id=-1, parent_id=None,
    start=0.0, wall_start=0.0, end=0.0, wall_end=0.0,
)


class _SpanContext:
    """Context manager binding one span to one ``with`` block."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: TraceSpan) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> TraceSpan:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self._span)
        self._tracer.end_span(self._span)


class Tracer:
    """Collects spans, point events, and derived metrics for one run.

    Args:
        clock: runtime clock (e.g. ``lambda: engine.now``).  Defaults to
            wall seconds since tracer creation.
        metrics: registry for derived metrics (created if omitted).
        path: JSONL file :meth:`flush` writes the run's log to.
        log: the run log records go to (a new one if omitted).
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        metrics: MetricsRegistry | None = None,
        path: str | None = None,
        log: RunLog | None = None,
    ) -> None:
        self._epoch = time.perf_counter()
        self.clock = clock if clock is not None else (lambda: time.perf_counter() - self._epoch)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.path = path
        self.log = log if log is not None else RunLog()
        self._open: dict[int, TraceSpan] = {}  # started, not yet in the log
        self._flushed: int | None = None  # log records written to path so far
        self._next_id = 0
        self._lock = threading.Lock()
        self._stacks = threading.local()

    # -- nesting stack (per thread) ------------------------------------------------
    def _stack(self) -> list[TraceSpan]:
        stack = getattr(self._stacks, "value", None)
        if stack is None:
            stack = self._stacks.value = []
        return stack

    def _push(self, span: TraceSpan) -> None:
        self._stack().append(span)

    def _pop(self, span: TraceSpan) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current_span(self) -> TraceSpan | None:
        """Innermost span opened by ``with tracer.span(...)`` on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- recording -------------------------------------------------------------------
    def span(self, name: str, category: str = "span", **attrs: Any) -> _SpanContext:
        """Open a nested span for a ``with`` block."""
        return _SpanContext(self, self.start_span(name, category, **attrs))

    def start_span(
        self,
        name: str,
        category: str = "span",
        parent: TraceSpan | None = None,
        **attrs: Any,
    ) -> TraceSpan:
        """Begin a span explicitly (for work spread over callbacks).

        The parent defaults to the innermost ``with``-opened span of the
        calling thread.  Pass the returned span to :meth:`end_span`.
        """
        if parent is None:
            parent = self.current_span()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = TraceSpan(
                name=name,
                category=category,
                span_id=span_id,
                parent_id=parent.span_id if parent is not None else None,
                start=self.clock(),
                wall_start=time.perf_counter(),
                attrs=dict(attrs),
            )
            self._open[span_id] = span
        return span

    def end_span(self, span: TraceSpan, **attrs: Any) -> None:
        """Close *span*, stamping both clocks and recording its latency."""
        if span.end is not None:
            return
        with self._lock:
            self._open.pop(span.span_id, None)
        span.end = self.clock()
        span.wall_end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        self.metrics.histogram(f"span.{span.name}").observe(span.duration)
        self.log.append(span)

    def add_span(
        self,
        name: str,
        category: str = "span",
        start: float = 0.0,
        end: float = 0.0,
        parent: TraceSpan | None = None,
        **attrs: Any,
    ) -> TraceSpan:
        """Record an already-timed interval as a closed span.

        For work whose runtime-clock stamps were taken elsewhere (e.g. an
        actuation op's ``exec_start``/``exec_end``).  Both wall stamps are
        taken now, so ``wall_duration`` is ~0 for such spans.
        """
        if parent is None:
            parent = self.current_span()
        wall = time.perf_counter()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = TraceSpan(
                name=name,
                category=category,
                span_id=span_id,
                parent_id=parent.span_id if parent is not None else None,
                start=start,
                wall_start=wall,
                end=end,
                wall_end=wall,
                attrs=dict(attrs),
            )
        self.metrics.histogram(f"span.{name}").observe(span.duration)
        self.log.append(span)
        return span

    def point(self, name: str, category: str = "event", **attrs: Any) -> None:
        """Record an instantaneous annotated event."""
        now = self.clock()
        self.count(name)
        self.record("point", now, name=name, category=category, attrs=attrs)

    def count(self, name: str) -> None:
        """Count one *name* event in ``event.<name>``: a point's counter,
        for a fact whose record is another one in the log."""
        self.metrics.counter(f"event.{name}").inc()

    def record(self, kind: str, time: float, **fields: Any) -> None:
        """Append one event record; ``kind`` and ``time`` lead every line."""
        self.log.append({"kind": kind, "time": time, **fields})

    # -- queries -----------------------------------------------------------------------
    def _started(self) -> list:
        """The log's records, then the spans still open."""
        with self._lock:
            return [*self.log.records(), *self._open.values()]

    @property
    def spans(self) -> list[TraceSpan]:
        """Every span started, open ones too, in start order."""
        started = [s for s in self._started() if isinstance(s, TraceSpan)]
        started.sort(key=lambda s: s.span_id)
        return started

    def finished_spans(
        self, name: str | None = None, category: str | None = None
    ) -> list[TraceSpan]:
        """Closed spans filtered by name and/or category, in start order."""
        out = [
            s
            for s in self.log.records()
            if isinstance(s, TraceSpan)
            and s.end is not None
            and (name is None or s.name == name)
            and (category is None or s.category == category)
        ]
        out.sort(key=lambda s: (s.start, s.span_id))
        return out

    def children_of(self, span: TraceSpan) -> list[TraceSpan]:
        """The spans started under *span*, open ones too, in start order."""
        out = [
            s for s in self._started()
            if isinstance(s, TraceSpan) and s.parent_id == span.span_id
        ]
        out.sort(key=lambda s: s.span_id)
        return out

    def records(self) -> list:
        """The log's records in append order; objects are the live ones."""
        return self.log.records()

    def flush(self) -> None:
        """Write the log records not yet written to ``path`` as JSONL lines.

        The first flush replaces the file, so a reused path holds one
        run; later flushes append.  No-op without a path.
        """
        if self.path is None:
            return
        with self._lock:
            done = self._flushed
            pending = self.log.records(done or 0)
            self._flushed = (done or 0) + len(pending)
        with open(self.path, "a" if done is not None else "w", encoding="utf-8") as fh:
            for record in pending:
                fh.write(json.dumps(as_record(record), separators=(",", ":"), sort_keys=True,
                                    default=str))
                fh.write("\n")


class _NullSpanContext:
    """Reusable no-op context manager returned by :meth:`NullTracer.span`."""

    __slots__ = ()

    def __enter__(self) -> TraceSpan:
        return _DROPPED

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_CTX = _NullSpanContext()


class NullTracer(Tracer):
    """The tracer of a run without telemetry: every operation is a shared no-op.

    Instrumented code paths keep their tracer calls; with a NullTracer
    each call is a constant-time method on shared singletons, so such a
    run pays only attribute lookups.  Its log is muted, so every view of
    it (records, spans, a flush) is empty.
    """

    enabled = False

    def __init__(self) -> None:
        self.clock = lambda: 0.0
        self.metrics = NullMetrics()
        self.path = None
        self.log = RunLog()
        self.log.muted = True
        self._open: dict[int, TraceSpan] = {}
        self._lock = threading.Lock()

    def span(self, name: str, category: str = "span", **attrs: Any) -> _NullSpanContext:  # type: ignore[override]
        return _NULL_CTX

    def start_span(
        self,
        name: str,
        category: str = "span",
        parent: TraceSpan | None = None,
        **attrs: Any,
    ) -> TraceSpan:
        return _DROPPED

    def end_span(self, span: TraceSpan, **attrs: Any) -> None:
        pass

    def add_span(
        self,
        name: str,
        category: str = "span",
        start: float = 0.0,
        end: float = 0.0,
        parent: TraceSpan | None = None,
        **attrs: Any,
    ) -> TraceSpan:
        return _DROPPED

    def point(self, name: str, category: str = "event", **attrs: Any) -> None:
        pass

    def count(self, name: str) -> None:
        pass

    def record(self, kind: str, time: float, **fields: Any) -> None:
        pass

    def current_span(self) -> TraceSpan | None:
        return None


#: Shared disabled tracer: the default for every instrumented component.
NULL_TRACER = NullTracer()
