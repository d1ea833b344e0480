"""ASCII Gantt rendering of experiment traces (Figs. 1, 6, 8, 11)."""

from __future__ import annotations

from repro.sim.trace import RunLog


def render_gantt(
    trace: RunLog,
    width: int = 100,
    categories: tuple[str, ...] = ("task",),
    adjust_category: str = "adjust",
    end_time: float | None = None,
) -> str:
    """Render task spans as bars, with DYFLOW adjustment windows marked.

    Each track gets one line; '=' marks task execution, '!' marks the
    dynamic-adjustment (response) windows — the paper's red intervals.
    """
    end = end_time if end_time is not None else trace.end_time()
    if end <= 0:
        return "(empty trace)"
    scale = width / end

    def col(t: float) -> int:
        return min(width - 1, max(0, int(t * scale)))

    lines = [f"time: 0 .. {end:.0f}s  ('=' running, '!' DYFLOW adjustment)"]
    tracks = [t for t in trace.tracks() if any(
        s.category in categories for s in trace.spans_for(track=t))]
    adjust_spans = [s for s in trace.spans if s.category == adjust_category and s.end is not None]
    label_width = max((len(t) for t in tracks), default=8) + 2
    for track in tracks:
        row = [" "] * width
        for span in trace.spans_for(track=track):
            if span.category not in categories or span.end is None:
                continue
            lo, hi = col(span.start), col(span.end)
            for i in range(lo, max(hi, lo + 1)):
                row[i] = "="
        lines.append(f"{track:<{label_width}}|{''.join(row)}|")
    if adjust_spans:
        row = [" "] * width
        for span in adjust_spans:
            lo, hi = col(span.start), col(span.end)
            for i in range(lo, max(hi, lo + 1)):
                row[i] = "!"
        lines.append(f"{'DYFLOW':<{label_width}}|{''.join(row)}|")
    return "\n".join(lines)


def timeline_events(trace: RunLog, category: str | None = None) -> list[str]:
    """Human-readable point-event log, time-ordered."""
    return [
        f"t={p.time:9.2f}s  {p.label}" for p in trace.points_for(category=category)
    ]
