"""Critical-path and bottleneck analysis over closed span trees.

Spans nest through parent ids (a ``loop.tick`` contains its stage spans,
a plan execution contains its per-op spans).  The *critical path* of a
tree is the root-to-leaf chain found by always descending into the
longest child; each entry carries its **slack** — how much longer that
span could have run without lengthening its parent.  **Exclusive time**
(duration minus the children's durations) attributes cost to the span
that actually did the work, which is what the bottleneck tables rank.

Everything here is a pure function of the span list, uses only the
runtime clock (simulated seconds under the sim driver), and breaks every
tie deterministically — the run report built on top must be
byte-identical across same-seed runs.  A :class:`SpanForest` sorts the
spans once and builds the children map once; every analysis is a view
of it, so a report walks its spans once however many sections it has.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterable, Mapping, Sequence

from repro.telemetry.tracer import TraceSpan


class SpanView:
    """The analysis-relevant slice of a closed span (a tracer record or its
    JSONL line); ``duration`` is computed once, when the view is built."""

    __slots__ = ("name", "category", "span_id", "parent_id", "start", "end", "duration")

    def __init__(
        self, name: str, category: str, span_id: int, parent_id: int | None,
        start: float, end: float,
    ) -> None:
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.duration = end - start

    def _key(self) -> tuple:
        return (self.name, self.category, self.span_id, self.parent_id, self.start, self.end)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if type(other) is SpanView else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "SpanView(%r, %r, %r, %r, %r, %r)" % self._key()

    @classmethod
    def from_span(cls, span: TraceSpan) -> "SpanView":
        return cls(span.name, span.category, span.span_id, span.parent_id,
                   float(span.start), float(span.end))  # type: ignore[arg-type]

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "SpanView":
        """Build from one ``kind == "span"`` JSONL record."""
        parent_id = record.get("parent_id")
        return cls(
            record["name"], record["category"], int(record["span_id"]),
            None if parent_id is None else int(parent_id),
            float(record["start"]), float(record["end"]),
        )


@dataclass(frozen=True)
class PathEntry:
    """One critical-path hop: a span plus its slack inside its parent."""

    name: str
    category: str
    span_id: int
    start: float
    end: float
    duration: float
    slack: float
    depth: int


@dataclass(frozen=True)
class CriticalPath:
    """Root-to-leaf longest chain; ``total`` is the root's duration."""

    entries: tuple[PathEntry, ...]
    total: float

    def __bool__(self) -> bool:
        return bool(self.entries)


#: The one order of the span list, and the key that ranks spans within it.
_START_ORDER = attrgetter("start", "span_id")
_DURATION = attrgetter("duration")


def as_views(spans: Iterable[TraceSpan | SpanView]) -> list[SpanView]:
    """Closed spans only, as :class:`SpanView`, in deterministic order."""
    views = [
        s if isinstance(s, SpanView) else SpanView.from_span(s)
        for s in spans
        if isinstance(s, SpanView) or s.end is not None
    ]
    views.sort(key=_START_ORDER)
    return views


def _forest(views: Sequence[SpanView]) -> tuple[list[SpanView], dict[int, list[SpanView]]]:
    """Roots + children map, each list in *views*' order.  A span whose
    parent is absent is a root."""
    present = {v.span_id for v in views}
    children: dict[int, list[SpanView]] = {}
    roots: list[SpanView] = []
    for v in views:
        if v.parent_id is not None and v.parent_id in present:
            children.setdefault(v.parent_id, []).append(v)
        else:
            roots.append(v)
    return roots, children


class SpanForest:
    """The closed spans of *spans*, sorted once by ``(start, span_id)``, with
    their roots and children map built once.

    Spans rank by duration, longest first, ties by earliest start, then
    lowest span id.  Every list here is already in ``(start, span_id)``
    order, so ranking one needs only a stable pass by duration: ``max``
    keeps the first of equal maxima, ``nlargest`` and a reversed sort keep
    equal keys in their input order.
    """

    __slots__ = ("views", "roots", "children")

    def __init__(self, spans: Iterable[TraceSpan | SpanView]) -> None:
        self.views = as_views(spans)
        self.roots, self.children = _forest(self.views)

    def critical_path(self) -> CriticalPath:
        if not self.roots:
            return CriticalPath(entries=(), total=0.0)
        entries: list[PathEntry] = []
        root = max(self.roots, key=_DURATION)
        node, parent, depth = root, None, 0
        while node is not None:
            slack = 0.0 if parent is None else max(0.0, parent.duration - node.duration)
            entries.append(
                PathEntry(
                    name=node.name, category=node.category, span_id=node.span_id,
                    start=node.start, end=node.end, duration=node.duration,
                    slack=slack, depth=depth,
                )
            )
            kids = self.children.get(node.span_id)
            parent, node, depth = node, (max(kids, key=_DURATION) if kids else None), depth + 1
        return CriticalPath(entries=tuple(entries), total=root.duration)

    def exclusive_times(self) -> dict[int, float]:
        children = self.children
        out: dict[int, float] = {}
        for v in self.views:
            kids = children.get(v.span_id)
            # Summed in rank order, longest first: a float sum depends on
            # the order of its terms, and the report's bytes on the sum.
            covered = sum(sorted([c.duration for c in kids], reverse=True)) if kids else 0
            out[v.span_id] = max(0.0, v.duration - covered)
        return out

    def bottlenecks(self, top_n: int = 5) -> list[dict[str, Any]]:
        excl = self.exclusive_times()
        groups: dict[tuple[str, str], dict[str, Any]] = {}
        for v in self.views:
            g = groups.get((v.category, v.name))
            if g is None:
                g = groups[(v.category, v.name)] = {
                    "category": v.category, "name": v.name, "count": 0,
                    "exclusive": 0.0, "total": 0.0, "max_exclusive": 0.0,
                }
            e = excl[v.span_id]
            g["count"] += 1
            g["exclusive"] += e
            g["total"] += v.duration
            g["max_exclusive"] = max(g["max_exclusive"], e)
        ranked = sorted(
            groups.values(), key=lambda g: (-g["exclusive"], g["category"], g["name"])
        )
        return ranked[:top_n]

    def slowest_spans(self, top_n: int = 5) -> list[SpanView]:
        return heapq.nlargest(top_n, self.views, key=_DURATION)


def critical_path(spans: Iterable[TraceSpan | SpanView]) -> CriticalPath:
    """Longest-duration chain from the longest root down to a leaf.

    At each level the longest child is taken (ties: earliest start, then
    lowest span id).  Slack of a chain entry is ``parent.duration -
    entry.duration`` (the root's slack is 0 by definition).
    """
    return SpanForest(spans).critical_path()


def exclusive_times(spans: Iterable[TraceSpan | SpanView]) -> dict[int, float]:
    """span_id → duration not covered by that span's direct children."""
    return SpanForest(spans).exclusive_times()


def bottlenecks(
    spans: Iterable[TraceSpan | SpanView], top_n: int = 5
) -> list[dict[str, Any]]:
    """Top-N (category, name) groups by total exclusive time.

    The category is the stage that owns the span (``monitor``,
    ``decision``, ``arbitration``, ``actuation``, ``wms``, ``loop``), so
    the table reads as per-stage cost attribution.
    """
    return SpanForest(spans).bottlenecks(top_n)


def slowest_spans(
    spans: Iterable[TraceSpan | SpanView], top_n: int = 5
) -> list[SpanView]:
    """Top-N individual spans by duration (ties: earliest, lowest id)."""
    return SpanForest(spans).slowest_spans(top_n)
