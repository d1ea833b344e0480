"""A run report walks its spans once.

Count-based (never wall-clock), in the style of
``tests/core/test_scaling_counts.py``: a report over N spans builds N
views, sorts the span list once (``as_views``) and builds the children
map once (``_forest``), at 1 000 spans as at 3 000, in the finalize form
(log objects) and the CLI form (JSONL lines).  A report whose sections
each re-read the spans sorted them four times and built two maps.
"""

import json

import pytest

from repro.observability import analysis
from repro.observability.analysis import SpanView
from repro.observability.report import report_from_jsonl
from repro.sim.trace import as_record
from repro.telemetry import Tracer


def tick_log(n_spans: int) -> list:
    """A tracer's log of *n_spans* spans: loop ticks, each holding a Monitor
    and a Decision stage span, and a launch span for each one left over."""
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    for _ in range(n_spans // 3):
        with tracer.span("loop.tick", "loop"):
            with tracer.span("stage.monitor", "monitor"):
                now[0] += 0.5
            with tracer.span("stage.decision", "decision"):
                now[0] += 0.25
        now[0] += 1.0
    for _ in range(n_spans % 3):
        with tracer.span("wms.launch", "wms"):
            now[0] += 0.1
    tracer.record("metrics", now[0], metrics={})
    return tracer.records()


def count_report_work(monkeypatch, records) -> dict[str, int]:
    """Build one report; count the views built, the span-list sorts (and
    how many views each sorted), and the children maps built."""
    counts = {"views": 0, "sorts": 0, "sorted": 0, "maps": 0}
    build_view, sort_views, build_map = SpanView.__init__, analysis.as_views, analysis._forest

    def counting_view(self, *args, **kwargs):
        counts["views"] += 1
        build_view(self, *args, **kwargs)

    def counting_sort(spans):
        views = sort_views(spans)
        counts["sorts"] += 1
        counts["sorted"] += len(views)
        return views

    def counting_map(views):
        counts["maps"] += 1
        return build_map(views)

    monkeypatch.setattr(SpanView, "__init__", counting_view)
    monkeypatch.setattr(analysis, "as_views", counting_sort)
    monkeypatch.setattr(analysis, "_forest", counting_map)
    report_from_jsonl(records)
    return counts


@pytest.mark.parametrize("form", ["objects", "jsonl"])
@pytest.mark.parametrize("n_spans", [1000, 3000])
def test_a_report_walks_its_spans_once(monkeypatch, n_spans, form):
    records = tick_log(n_spans)
    if form == "jsonl":
        records = [json.loads(json.dumps(as_record(r))) for r in records]
    counts = count_report_work(monkeypatch, records)
    assert counts == {"views": n_spans, "sorts": 1, "sorted": n_spans, "maps": 1}
