"""The run log: the one record of what a run did, and the Gantt data in it.

The paper's figures 6, 8 and 11 are Gantt charts of task runs (bars) with
dynamic-adjustment windows (red intervals), annotated with why DYFLOW
acted.  :class:`RunLog` is the one append-only stream a run writes those
facts to, each once: the Gantt :class:`Span` and :class:`PointEvent`
records, the telemetry spans and points, the Monitor's metric updates,
the health alerts and every suggestion's outcome.  Every reader is a
view of it — the Gantt slices below, the metric history, the alert and
chaos histories, the outcome counts, the JSONL file and the run report —
so the copies cannot drift (capture once, query later).

A record is the object itself, not a wrapper; :func:`as_record` gives its
JSONL form, whose ``kind`` and ``time`` lead every line.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:
    from repro.cluster.allocation import ResourceSet


@dataclass
class Span:
    """A half-open interval ``[start, end)`` attributed to a track.

    ``end`` is None while the span is still open.  A task span also holds
    where the instance ran (``resources``, its cores per node) and, once
    closed, what it noted (``notes``: first/last step, completion);
    neither is part of the Gantt identity a fingerprint hashes.
    """

    track: str
    label: str
    start: float
    end: float | None = None
    category: str = "task"
    meta: dict[str, Any] = field(default_factory=dict)
    resources: ResourceSet | None = None
    notes: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.label!r} still open")
        return self.end - self.start

    def to_record(self) -> dict[str, Any]:
        return {
            "kind": "gantt-span", "time": self.start, "track": self.track,
            "label": self.label, "start": self.start, "end": self.end,
            "category": self.category, "meta": self.meta, "notes": self.notes,
            "nodes": self.resources.as_dict() if self.resources is not None else None,
        }


@dataclass(frozen=True)
class PointEvent:
    """An instantaneous annotated event."""

    time: float
    label: str
    category: str = "event"
    meta: dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> dict[str, Any]:
        return {
            "kind": "gantt-point", "time": self.time, "label": self.label,
            "category": self.category, "meta": self.meta,
        }


def as_record(record) -> dict[str, Any]:
    """The JSONL form of one log record (a dict record is its own form)."""
    return record if type(record) is dict else record.to_record()


class RunLog:
    """The run's one append-only record stream.

    Appends are safe from several threads.  While ``muted`` (a resumed
    controller replaying its journal: what replay rebuilds was logged
    before the crash) nothing is appended.
    """

    def __init__(self) -> None:
        self._entries: list = []
        self._open: dict[tuple[str, str], Span] = {}
        self._lock = threading.Lock()
        self.muted = False

    def append(self, record) -> None:
        if not self.muted:
            with self._lock:
                self._entries.append(record)

    def extend(self, records: Iterable) -> None:
        if not self.muted:
            with self._lock:
                self._entries.extend(records)

    def records(self) -> list:
        """The records in append order."""
        with self._lock:
            return self._entries[:]

    def of_type(self, cls: type) -> list:
        """The records that are *cls* instances, in append order."""
        return [r for r in self.records() if isinstance(r, cls)]

    # -- Gantt writers ---------------------------------------------------------------
    def open_span(
        self,
        track: str,
        label: str,
        start: float,
        category: str = "task",
        resources: ResourceSet | None = None,
        **meta: Any,
    ) -> Span:
        """Open a span; at most one open span per (track, label) pair."""
        key = (track, label)
        if key in self._open:
            raise ValueError(f"span already open for {key}")
        span = Span(track, label, start, category=category, meta=dict(meta), resources=resources)
        self.append(span)
        self._open[key] = span
        return span

    def close_span(self, track: str, label: str, end: float,
                   notes: dict[str, Any] | None = None, **meta: Any) -> Span:
        """Close the open span for (track, label)."""
        span = self._open.pop((track, label), None)
        if span is None:
            raise ValueError(f"no open span for {(track, label)}")
        span.end = end
        span.meta.update(meta)
        span.notes = notes
        return span

    def add_span(self, track: str, label: str, start: float, end: float,
                 category: str = "task", **meta: Any) -> Span:
        """Record an already-closed span."""
        span = Span(track, label, start, end=end, category=category, meta=dict(meta))
        self.append(span)
        return span

    def point(self, time: float, label: str, category: str = "event", **meta: Any) -> PointEvent:
        ev = PointEvent(time=time, label=label, category=category, meta=dict(meta))
        self.append(ev)
        return ev

    # -- Gantt views -----------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        return self.of_type(Span)

    @property
    def points(self) -> list[PointEvent]:
        return self.of_type(PointEvent)

    def spans_for(self, track: str | None = None, category: str | None = None) -> list[Span]:
        """Spans filtered by track and/or category, in start order."""
        out = [
            s
            for s in self.spans
            if (track is None or s.track == track) and (category is None or s.category == category)
        ]
        out.sort(key=lambda s: (s.start, s.track, s.label))
        return out

    def points_for(self, category: str | None = None, label: str | None = None) -> list[PointEvent]:
        out = [
            p
            for p in self.points
            if (category is None or p.category == category) and (label is None or p.label == label)
        ]
        out.sort(key=lambda p: p.time)
        return out

    def tracks(self) -> list[str]:
        """All track names, in first-appearance order."""
        return list(dict.fromkeys(s.track for s in self.spans))

    def end_time(self) -> float:
        """Latest closed-span end or point time (0.0 when empty)."""
        times = [s.end for s in self.spans if s.end is not None]
        times.extend(p.time for p in self.points)
        return max(times, default=0.0)
