"""The one-pass span analysis against the four-pass one it replaced.

``SpanForest`` sorts the span list once and builds the children map once;
the critical path, exclusive times, bottleneck table and slowest spans
are views of it.  Below, kept verbatim as the oracle, is the analysis it
replaced: each section re-ran ``as_views`` (a full sort) and two of them
built their own ``_forest`` with every child list ranked.  On random span
forests — duration and start ties, orphan parent ids, open spans, parents
whose children cover more than their duration, tracer spans mixed with
JSONL lines — every section must equal the oracle's, each float bit for
bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Iterable, Mapping, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.analysis import (
    SpanView,
    as_views,
    bottlenecks,
    critical_path,
    exclusive_times,
    slowest_spans,
)
from repro.observability.report import report_from_jsonl
from repro.telemetry.tracer import TraceSpan


# -- the oracle: the four-pass analysis, verbatim -----------------------------------
@dataclass(frozen=True)
class OracleView:
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
    def from_span(cls, span: TraceSpan) -> "OracleView":
        return cls(
            name=span.name, category=span.category, span_id=span.span_id,
            parent_id=span.parent_id, start=float(span.start),
            end=float(span.end),  # type: ignore[arg-type]
        )

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "OracleView":
        return cls(
            name=record["name"], category=record["category"],
            span_id=int(record["span_id"]),
            parent_id=None if record.get("parent_id") is None else int(record["parent_id"]),
            start=float(record["start"]), end=float(record["end"]),
        )


def oracle_as_views(spans: Iterable[TraceSpan | OracleView]) -> list[OracleView]:
    views = [
        s if isinstance(s, OracleView) else OracleView.from_span(s)
        for s in spans
        if isinstance(s, OracleView) or s.end is not None
    ]
    views.sort(key=lambda v: (v.start, v.span_id))
    return views


def oracle_forest(views: Sequence[OracleView]):
    by_id = {v.span_id: v for v in views}
    children: dict[int, list[OracleView]] = {}
    roots: list[OracleView] = []
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


def oracle_critical_path(spans) -> tuple[tuple[dict[str, Any], ...], float]:
    roots, children = oracle_forest(oracle_as_views(spans))
    if not roots:
        return (), 0.0
    entries: list[dict[str, Any]] = []
    node, parent, depth = roots[0], None, 0
    while node is not None:
        slack = 0.0 if parent is None else max(0.0, parent.duration - node.duration)
        entries.append(dict(
            name=node.name, category=node.category, span_id=node.span_id,
            start=node.start, end=node.end, duration=node.duration,
            slack=slack, depth=depth,
        ))
        kids = children.get(node.span_id, [])
        parent, node, depth = node, (kids[0] if kids else None), depth + 1
    return tuple(entries), roots[0].duration


def oracle_exclusive_times(spans) -> dict[int, float]:
    views = oracle_as_views(spans)
    _roots, children = oracle_forest(views)
    out: dict[int, float] = {}
    for v in views:
        covered = sum(c.duration for c in children.get(v.span_id, []))
        out[v.span_id] = max(0.0, v.duration - covered)
    return out


def oracle_bottlenecks(spans, top_n: int = 5) -> list[dict[str, Any]]:
    views = oracle_as_views(spans)
    excl = oracle_exclusive_times(views)
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


def oracle_slowest_spans(spans, top_n: int = 5) -> list[OracleView]:
    views = oracle_as_views(spans)
    views.sort(key=lambda v: (-v.duration, v.start, v.span_id))
    return views[:top_n]


# -- bit-exact comparison -----------------------------------------------------------
def bits(value):
    """*value* with every float as its hex spelling and every number tagged
    with its type: ``0.0``, ``-0.0`` and ``0`` all differ."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    raise TypeError(type(value))


def fields(view) -> dict[str, Any]:
    return {k: getattr(view, k)
            for k in ("name", "category", "span_id", "parent_id", "start", "end", "duration")}


# -- random span forests ------------------------------------------------------------
# Few distinct starts and durations make ties common; tenths make sums
# whose value depends on the order they are added in ((0.1 + 0.2) + 0.3 !=
# (0.3 + 0.2) + 0.1).
TIMES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
                  st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False))
DURATIONS = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.0]),
                      st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False))
NAMES = st.sampled_from([("loop", "loop.tick"), ("decision", "decision.tick"),
                         ("monitor", "monitor.ingest"), ("wms", "wms.launch")])


@st.composite
def forests(draw) -> list[TraceSpan]:
    """Closed and open tracer spans with unique ids.  A parent id names an
    earlier span (so the tree has no cycle), an id no span has (an orphan),
    or nothing; the first spans are likelier parents, so some have many
    children."""
    n = draw(st.integers(0, 30))
    ids = draw(st.lists(st.integers(0, 200), min_size=n, max_size=n, unique=True))
    spans: list[TraceSpan] = []
    for i, span_id in enumerate(ids):
        category, name = draw(NAMES)
        parent = draw(st.one_of(
            st.none(),
            st.integers(1000, 1003),  # orphan
            *([st.sampled_from(ids[:i]), st.sampled_from(ids[:2])] if i else []),
        ))
        start = draw(TIMES)
        end = None if draw(st.integers(0, 9)) == 0 else start + draw(DURATIONS)
        spans.append(TraceSpan(name=name, category=category, span_id=span_id,
                               parent_id=parent, start=start, wall_start=0.0,
                               end=end, wall_end=end))
    return draw(st.permutations(spans))


def as_line(span: TraceSpan) -> dict[str, Any]:
    """The span's JSONL line, read back."""
    return json.loads(json.dumps(span.to_record(), sort_keys=True))


@settings(max_examples=100)
@given(spans=forests(), top_n=st.integers(0, 8), data=st.data())
def test_every_section_equals_the_four_pass_oracle(spans, top_n, data):
    """The public functions, fed tracer spans and views mixed, against the
    oracle fed the same spans."""
    closed = [s for s in spans if s.end is not None]
    as_view = data.draw(st.lists(st.booleans(), min_size=len(spans), max_size=len(spans)))
    mine = [SpanView.from_span(s) if v and s.end is not None else s
            for s, v in zip(spans, as_view)]
    theirs = [OracleView.from_span(s) if v and s.end is not None else s
              for s, v in zip(spans, as_view)]

    assert [bits(fields(v)) for v in as_views(mine)] == [
        bits(fields(v)) for v in oracle_as_views(theirs)]
    path = critical_path(mine)
    entries, total = oracle_critical_path(theirs)
    assert bits([asdict(e) for e in path.entries]) == bits(list(entries))
    assert bits(path.total) == bits(total)
    assert bits(exclusive_times(mine)) == bits(oracle_exclusive_times(theirs))
    assert bits(bottlenecks(mine, top_n)) == bits(oracle_bottlenecks(theirs, top_n))
    assert [bits(fields(v)) for v in slowest_spans(mine, top_n)] == [
        bits(fields(v)) for v in oracle_slowest_spans(theirs, top_n)]
    assert len(as_views(mine)) == len(closed)


@settings(max_examples=100)
@given(spans=forests(), top_n=st.integers(0, 8), data=st.data())
def test_report_sections_equal_the_oracle_over_mixed_records(spans, top_n, data):
    """``report_from_jsonl`` over a log that mixes tracer spans with JSONL
    span lines (open ones among them) builds the oracle's sections."""
    records: list[Any] = []
    for span in spans:
        as_jsonl = data.draw(st.booleans())
        if as_jsonl:
            records.append(as_line(span))
        elif span.end is not None:  # a tracer logs a span when it closes
            records.append(span)
    views = [OracleView.from_span(r) if isinstance(r, TraceSpan) else OracleView.from_record(r)
             for r in records if (r.end if isinstance(r, TraceSpan) else r["end"]) is not None]

    report = report_from_jsonl(records, top_n=top_n)
    entries, total = oracle_critical_path(views)
    assert bits(report["critical_path"]) == bits({
        "total": total,
        "entries": [{k: e[k] for k in ("name", "category", "depth", "start", "end",
                                       "duration", "slack")} for e in entries],
    })
    assert bits(report["bottlenecks"]) == bits(oracle_bottlenecks(views, top_n))
    assert bits(report["slow_spans"]) == bits([
        {"name": v.name, "category": v.category, "start": v.start, "end": v.end,
         "duration": v.duration}
        for v in oracle_slowest_spans(views, top_n)
    ])


def test_children_are_summed_longest_first():
    """Three children in start order shortest first: their durations sum
    to a different float in that order than in rank order, which the
    oracle adds them in."""
    spans = [SpanView("parent", "loop", 1, None, 0.0, 1.0)] + [
        SpanView(f"child-{i}", "loop", 2 + i, 1, 0.0, d)
        for i, d in enumerate((0.1, 0.2, 0.3))
    ]
    oracle = [OracleView(v.name, v.category, v.span_id, v.parent_id, v.start, v.end)
              for v in spans]
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    assert bits(exclusive_times(spans)) == bits(oracle_exclusive_times(oracle))
