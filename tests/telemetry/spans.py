"""A tracer's finished spans, read from its run log as the report reads them."""

from operator import attrgetter

from repro.telemetry import TraceSpan


def finished(tracer, name=None, category=None):
    """The finished spans, filtered by name and/or category, in start order."""
    spans = [
        r for r in tracer.records()
        if isinstance(r, TraceSpan)
        and (name is None or r.name == name)
        and (category is None or r.category == category)
    ]
    return sorted(spans, key=attrgetter("start", "span_id"))


def children(tracer, span):
    """The finished spans whose parent is *span*, in the order they started."""
    return sorted(
        (r for r in tracer.records() if isinstance(r, TraceSpan) and r.parent_id == span.span_id),
        key=attrgetter("span_id"),
    )
