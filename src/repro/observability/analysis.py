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
byte-identical across same-seed runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.telemetry.tracer import TraceSpan


@dataclass(frozen=True)
class SpanView:
    """The analysis-relevant slice of a span (a tracer record or its JSONL line)."""

    name: str
    category: str
    span_id: int
    parent_id: int | None
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @classmethod
    def from_span(cls, span: TraceSpan) -> "SpanView":
        return cls(
            name=span.name, category=span.category, span_id=span.span_id,
            parent_id=span.parent_id, start=float(span.start),
            end=float(span.end),  # type: ignore[arg-type]
        )

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "SpanView":
        """Build from one ``kind == "span"`` JSONL record."""
        return cls(
            name=record["name"], category=record["category"],
            span_id=int(record["span_id"]),
            parent_id=None if record.get("parent_id") is None else int(record["parent_id"]),
            start=float(record["start"]), end=float(record["end"]),
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


def as_views(spans: Iterable[TraceSpan | SpanView]) -> list[SpanView]:
    """Closed spans only, as :class:`SpanView`, in deterministic order."""
    views = [
        s if isinstance(s, SpanView) else SpanView.from_span(s)
        for s in spans
        if isinstance(s, SpanView) or s.end is not None
    ]
    views.sort(key=lambda v: (v.start, v.span_id))
    return views


def _forest(views: Sequence[SpanView]) -> tuple[list[SpanView], dict[int, list[SpanView]]]:
    """Roots + children map.  A span whose parent is absent is a root."""
    by_id = {v.span_id: v for v in views}
    children: dict[int, list[SpanView]] = {}
    roots: list[SpanView] = []
    for v in views:
        if v.parent_id is not None and v.parent_id in by_id:
            children.setdefault(v.parent_id, []).append(v)
        else:
            roots.append(v)
    order = lambda v: (-v.duration, v.start, v.span_id)  # noqa: E731
    roots.sort(key=order)
    for kids in children.values():
        kids.sort(key=order)
    return roots, children


def critical_path(spans: Iterable[TraceSpan | SpanView]) -> CriticalPath:
    """Longest-duration chain from the longest root down to a leaf.

    At each level the longest child is taken (ties: earliest start, then
    lowest span id).  Slack of a chain entry is ``parent.duration -
    entry.duration`` (the root's slack is 0 by definition).
    """
    roots, children = _forest(as_views(spans))
    if not roots:
        return CriticalPath(entries=(), total=0.0)
    entries: list[PathEntry] = []
    node, parent, depth = roots[0], None, 0
    while node is not None:
        slack = 0.0 if parent is None else max(0.0, parent.duration - node.duration)
        entries.append(
            PathEntry(
                name=node.name, category=node.category, span_id=node.span_id,
                start=node.start, end=node.end, duration=node.duration,
                slack=slack, depth=depth,
            )
        )
        kids = children.get(node.span_id, [])
        parent, node, depth = node, (kids[0] if kids else None), depth + 1
    return CriticalPath(entries=tuple(entries), total=roots[0].duration)


def exclusive_times(spans: Iterable[TraceSpan | SpanView]) -> dict[int, float]:
    """span_id → duration not covered by that span's direct children."""
    views = as_views(spans)
    _roots, children = _forest(views)
    out: dict[int, float] = {}
    for v in views:
        covered = sum(c.duration for c in children.get(v.span_id, []))
        out[v.span_id] = max(0.0, v.duration - covered)
    return out


def bottlenecks(
    spans: Iterable[TraceSpan | SpanView], top_n: int = 5
) -> list[dict[str, Any]]:
    """Top-N (category, name) groups by total exclusive time.

    The category is the stage that owns the span (``monitor``,
    ``decision``, ``arbitration``, ``actuation``, ``wms``, ``loop``), so
    the table reads as per-stage cost attribution.
    """
    views = as_views(spans)
    excl = exclusive_times(views)
    groups: dict[tuple[str, str], dict[str, Any]] = {}
    for v in views:
        g = groups.setdefault(
            (v.category, v.name),
            {"category": v.category, "name": v.name, "count": 0,
             "exclusive": 0.0, "total": 0.0, "max_exclusive": 0.0},
        )
        g["count"] += 1
        g["exclusive"] += excl[v.span_id]
        g["total"] += v.duration
        g["max_exclusive"] = max(g["max_exclusive"], excl[v.span_id])
    ranked = sorted(
        groups.values(), key=lambda g: (-g["exclusive"], g["category"], g["name"])
    )
    return ranked[:top_n]


def slowest_spans(
    spans: Iterable[TraceSpan | SpanView], top_n: int = 5
) -> list[SpanView]:
    """Top-N individual spans by duration (ties: earliest, lowest id)."""
    views = as_views(spans)
    views.sort(key=lambda v: (-v.duration, v.start, v.span_id))
    return views[:top_n]
