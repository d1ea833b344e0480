"""Critical-path, slack, and bottleneck attribution over span trees."""

import json

from repro.observability.analysis import (
    SpanView,
    as_views,
    bottlenecks,
    critical_path,
    exclusive_times,
    slowest_spans,
)
from repro.telemetry import Tracer


def view(name, span_id, start, end, parent=None, category="span"):
    return SpanView(
        name=name, category=category, span_id=span_id,
        parent_id=parent, start=start, end=end,
    )


def tree():
    """A two-root forest with nesting:

    root (0..10)
      ├── slow-child (0..7)
      │     └── grandchild (1..4)
      └── fast-child (7..9)
    other-root (0..5)
    """
    return [
        view("root", 1, 0.0, 10.0),
        view("slow-child", 2, 0.0, 7.0, parent=1),
        view("fast-child", 3, 7.0, 9.0, parent=1),
        view("grandchild", 4, 1.0, 4.0, parent=2),
        view("other-root", 5, 0.0, 5.0),
    ]


class TestCriticalPath:
    def test_follows_the_longest_child_chain(self):
        path = critical_path(tree())
        assert [e.name for e in path.entries] == ["root", "slow-child", "grandchild"]
        assert path.total == 10.0
        assert [e.depth for e in path.entries] == [0, 1, 2]

    def test_slack_is_headroom_inside_the_parent(self):
        path = critical_path(tree())
        by_name = {e.name: e for e in path.entries}
        assert by_name["root"].slack == 0.0  # roots have no parent
        assert by_name["slow-child"].slack == 10.0 - 7.0
        assert by_name["grandchild"].slack == 7.0 - 3.0

    def test_empty_input_yields_an_empty_falsy_path(self):
        path = critical_path([])
        assert not path
        assert path.entries == () and path.total == 0.0

    def test_duration_ties_break_by_start_then_span_id(self):
        spans = [
            view("late", 2, 1.0, 3.0),
            view("early", 1, 0.0, 2.0),
        ]
        path = critical_path(spans)
        assert path.entries[0].name == "early"

    def test_orphan_parent_ids_make_spans_roots(self):
        # A span whose parent never closed (or was sampled away) must not
        # vanish from the analysis; it is promoted to a root.
        orphan = view("orphan", 7, 0.0, 20.0, parent=999)
        path = critical_path(tree() + [orphan])
        assert path.entries[0].name == "orphan"
        assert path.total == 20.0

    def test_open_spans_from_a_tracer_are_excluded(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.start_span("never-closed")
        path = critical_path(tracer.spans)
        assert not path


class TestExclusiveTimes:
    def test_children_are_subtracted_from_the_parent(self):
        excl = exclusive_times(tree())
        assert excl[1] == 10.0 - (7.0 + 2.0)  # root minus its two children
        assert excl[2] == 7.0 - 3.0
        assert excl[4] == 3.0  # leaf keeps everything

    def test_overcovered_parents_floor_at_zero(self):
        spans = [
            view("parent", 1, 0.0, 2.0),
            view("child-a", 2, 0.0, 2.0, parent=1),
            view("child-b", 3, 0.0, 2.0, parent=1),
        ]
        assert exclusive_times(spans)[1] == 0.0


class TestBottlenecks:
    def test_groups_by_category_and_name_ranked_by_exclusive(self):
        spans = tree() + [view("root", 6, 20.0, 21.0)]  # second instance
        ranked = bottlenecks(spans, top_n=10)
        assert ranked[0]["name"] == "other-root"
        top = {(g["category"], g["name"]): g for g in ranked}
        root = top[("span", "root")]
        assert root["count"] == 2
        assert root["total"] == 10.0 + 1.0
        assert root["exclusive"] == 1.0 + 1.0  # 10-9 covered, plus the solo run
        assert root["max_exclusive"] == 1.0

    def test_top_n_truncates(self):
        assert len(bottlenecks(tree(), top_n=2)) == 2


class TestSlowestSpans:
    def test_ranked_by_duration_with_deterministic_ties(self):
        slow = slowest_spans(tree(), top_n=3)
        assert [s.name for s in slow] == ["root", "slow-child", "other-root"]


class TestAsViews:
    def test_sorts_and_passes_views_through(self):
        spans = tree()
        views = as_views(reversed(spans))
        assert [v.span_id for v in views] == [1, 2, 5, 4, 3]
        assert all(isinstance(v, SpanView) for v in views)

    def test_converts_closed_tracer_spans(self):
        t = [0.0]
        tracer = Tracer(clock=lambda: t[0])
        with tracer.span("tick", "loop"):
            t[0] = 2.5
        (v,) = as_views(tracer.spans)
        assert (v.name, v.category, v.start, v.end) == ("tick", "loop", 0.0, 2.5)
        assert v.duration == 2.5

    def test_a_span_and_its_jsonl_line_give_equal_views(self):
        t = [0.0]
        tracer = Tracer(clock=lambda: t[0])
        with tracer.span("tick", "loop"):
            t[0] = 2
        (span,) = tracer.spans
        line = json.loads(json.dumps(span.to_record()))
        live, flushed = SpanView.from_span(span), SpanView.from_record(line)
        assert live == flushed and hash(live) == hash(flushed)
        assert live != SpanView("tick", "loop", span.span_id, None, 0.0, 2.5)
        assert {live, flushed} == {live}
