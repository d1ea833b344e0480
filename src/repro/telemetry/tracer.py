"""Span-based tracing of the DYFLOW control loop.

A :class:`TraceSpan` is one timed piece of work (a Decision tick, a plan
execution, a task launch) carrying *two* clocks: the runtime's own time
(simulated seconds on the event clock, or seconds since start for the
threaded driver) and wall-clock seconds.  Spans nest through parent ids,
so a plan execution contains its per-op child spans and a service tick
contains its stage spans.

:class:`Tracer` is the recording object every instrumented component
holds; :class:`NullTracer` is the disabled twin whose every operation is
a shared no-op, so instrumentation left in place costs near-zero when
telemetry is off.  Components default to the module-level
:data:`NULL_TRACER` and never need a None check.

The tracer also keeps the run's one record list — finished spans (by
reference), ``point`` and ``metrics`` events, in emission order — which
:meth:`Tracer.flush` writes as JSONL and the run report reads.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import TelemetryError
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


# Sentinel for spans dropped by sampling (and everything under them).
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
        sample: fraction of *root* spans to record, in (0, 1].  Sampling
            is a deterministic stride (every ``1/sample``-th root span),
            so traced runs replay identically.  Children of an unsampled
            root are dropped with it; metrics are always recorded.
        metrics: registry for derived metrics (created if omitted).
        path: JSONL file :meth:`flush` writes the run's records to.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        sample: float = 1.0,
        metrics: MetricsRegistry | None = None,
        path: str | None = None,
    ) -> None:
        if not 0.0 < sample <= 1.0:
            raise TelemetryError(f"sample must be in (0, 1], got {sample}")
        self._epoch = time.perf_counter()
        self.clock = clock if clock is not None else (lambda: time.perf_counter() - self._epoch)
        self.sample = float(sample)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.path = path
        self._spans: list[TraceSpan] = []
        # Finished spans and event dicts, in emission order.
        self._records: list[TraceSpan | dict[str, Any]] = []
        self._flushed: int | None = None  # records written to path so far
        self._next_id = 0
        self._roots_seen = 0
        self._roots_kept = 0
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
        if parent is _DROPPED:
            return _DROPPED
        if parent is None and not self._keep_root():
            return _DROPPED
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
            self._spans.append(span)
        return span

    def end_span(self, span: TraceSpan, **attrs: Any) -> None:
        """Close *span*, stamping both clocks and recording its latency."""
        if span is _DROPPED or span.end is not None:
            return
        span.end = self.clock()
        span.wall_end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        self.metrics.histogram(f"span.{span.name}").observe(span.duration)
        self._records.append(span)

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
        if parent is _DROPPED:
            return _DROPPED
        if parent is None and not self._keep_root():
            return _DROPPED
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
            self._spans.append(span)
        self.metrics.histogram(f"span.{name}").observe(span.duration)
        self._records.append(span)
        return span

    def point(self, name: str, category: str = "event", **attrs: Any) -> None:
        """Record an instantaneous annotated event."""
        now = self.clock()
        self.metrics.counter(f"event.{name}").inc()
        self.record("point", now, name=name, category=category, attrs=attrs)

    def record(self, kind: str, time: float, **fields: Any) -> None:
        """Append one event record; ``kind`` and ``time`` lead every line."""
        self._records.append({"kind": kind, "time": time, **fields})

    def _keep_root(self) -> bool:
        """Deterministic stride sampling over root spans."""
        self._roots_seen += 1
        target = int(self._roots_seen * self.sample + 1e-9)
        if target > self._roots_kept:
            self._roots_kept += 1
            return True
        return False

    # -- queries -----------------------------------------------------------------------
    @property
    def spans(self) -> list[TraceSpan]:
        with self._lock:
            return list(self._spans)

    def finished_spans(
        self, name: str | None = None, category: str | None = None
    ) -> list[TraceSpan]:
        """Closed spans filtered by name and/or category, in start order."""
        out = [
            s
            for s in self.spans
            if s.end is not None
            and (name is None or s.name == name)
            and (category is None or s.category == category)
        ]
        out.sort(key=lambda s: (s.start, s.span_id))
        return out

    def children_of(self, span: TraceSpan) -> list[TraceSpan]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def records(self) -> list[TraceSpan | dict[str, Any]]:
        """The run's records in emission order; spans are the live objects."""
        return list(self._records)

    def flush(self) -> None:
        """Write the records not yet written to ``path`` as JSONL lines.

        The first flush replaces the file, so a reused path holds one
        run; later flushes append.  No-op without a path.
        """
        if self.path is None:
            return
        with self._lock:
            done = self._flushed
            pending = self._records[done or 0:]
            self._flushed = (done or 0) + len(pending)
        with open(self.path, "a" if done is not None else "w", encoding="utf-8") as fh:
            for record in pending:
                if isinstance(record, TraceSpan):
                    record = {"kind": "span", "time": record.end, **record.to_dict()}
                fh.write(json.dumps(record, separators=(",", ":"), sort_keys=True, default=str))
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
    """Disabled tracer: every operation is a shared no-op.

    Instrumented code paths keep their tracer calls; with a NullTracer
    each call is a constant-time method on shared singletons, so a run
    with telemetry off pays only attribute lookups.
    """

    enabled = False

    def __init__(self) -> None:
        self.clock = lambda: 0.0
        self.sample = 1.0
        self.metrics = NullMetrics()

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

    def record(self, kind: str, time: float, **fields: Any) -> None:
        pass

    def records(self) -> list[TraceSpan | dict[str, Any]]:
        return []

    def current_span(self) -> TraceSpan | None:
        return None

    @property
    def spans(self) -> list[TraceSpan]:
        return []

    def finished_spans(
        self, name: str | None = None, category: str | None = None
    ) -> list[TraceSpan]:
        return []

    def children_of(self, span: TraceSpan) -> list[TraceSpan]:
        return []

    def flush(self) -> None:
        pass


#: Shared disabled tracer: the default for every instrumented component.
NULL_TRACER = NullTracer()
