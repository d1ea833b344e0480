"""Per-node / per-allocation utilization timelines.

Reconstructs what every allocated node was doing over the run —
busy (cores assigned to running task instances), idle, or quarantined —
from the run log's records (the launcher's task spans with their
placement, and the ``run.allocation`` / ``run.quarantine-history``
points), live or from the run's JSONL log alone (the SIM-SITU premise:
evaluation needs reconstructable per-resource timelines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.sim.trace import Span
from repro.telemetry.tracer import TraceSpan


@dataclass(frozen=True)
class BusySegment:
    """One task instance holding cores on one node for an interval."""

    node_id: str
    cores: int
    start: float
    end: float
    task: str


@dataclass(frozen=True)
class NodeUtilization:
    """One node's aggregate view over the analysis horizon."""

    node_id: str
    cores: int
    busy_core_seconds: float
    quarantined_seconds: float
    utilization: float  # busy core-seconds / (cores * horizon)
    timeline: tuple[tuple[float, float, int], ...]  # (start, end, busy cores)


@dataclass(frozen=True)
class UtilizationReport:
    """Busy/idle/quarantined accounting for one allocation."""

    start: float
    end: float
    nodes: tuple[NodeUtilization, ...]
    total_cores: int
    busy_core_seconds: float
    utilization: float

    @property
    def horizon(self) -> float:
        return self.end - self.start


def _clip(seg_start: float, seg_end: float, start: float, end: float) -> tuple[float, float]:
    return max(seg_start, start), min(seg_end, end)


def _node_timeline(
    segments: list[BusySegment], start: float, end: float
) -> tuple[tuple[float, float, int], ...]:
    """Merge per-task segments into (interval, busy-core-count) steps."""
    deltas: dict[float, int] = {}
    for seg in segments:
        s, e = _clip(seg.start, seg.end, start, end)
        if e <= s:
            continue
        deltas[s] = deltas.get(s, 0) + seg.cores
        deltas[e] = deltas.get(e, 0) - seg.cores
    points = sorted(set(deltas) | {start, end})
    timeline: list[tuple[float, float, int]] = []
    level = 0
    for t0, t1 in zip(points, points[1:]):
        level += deltas.get(t0, 0)
        if t1 > t0:
            if timeline and timeline[-1][2] == level and timeline[-1][1] == t0:
                prev = timeline.pop()
                timeline.append((prev[0], t1, level))
            else:
                timeline.append((t0, t1, level))
    return tuple(timeline)


def quarantine_intervals(
    history: Iterable[tuple[float, str, str]], end: float
) -> dict[str, list[tuple[float, float]]]:
    """Pair ``(time, node_id, kind)`` quarantined/released events into
    per-node exclusion intervals.

    A node still quarantined when the run ends is clamped to *end*.
    """
    opened: dict[str, float] = {}
    out: dict[str, list[tuple[float, float]]] = {}
    for t, node, kind in history:
        if kind == "quarantined":
            opened.setdefault(node, t)
        elif kind == "released" and node in opened:
            out.setdefault(node, []).append((opened.pop(node), t))
    for node, t in sorted(opened.items()):
        if end > t:
            out.setdefault(node, []).append((t, end))
    return out


def build_utilization(
    node_cores: Mapping[str, int],
    segments: Iterable[BusySegment],
    start: float = 0.0,
    end: float | None = None,
    quarantine_history: Iterable[tuple[float, str, str]] = (),
) -> UtilizationReport:
    """Assemble the report from explicit inputs."""
    segments = list(segments)
    if end is None:
        end = max((s.end for s in segments), default=start)
    end = max(end, start)
    horizon = end - start
    q_intervals = quarantine_intervals(quarantine_history, end)
    by_node: dict[str, list[BusySegment]] = {}
    for seg in segments:
        by_node.setdefault(seg.node_id, []).append(seg)
    nodes: list[NodeUtilization] = []
    total_busy = 0.0
    total_cores = 0
    for node_id in sorted(node_cores):
        cores = int(node_cores[node_id])
        total_cores += cores
        segs = sorted(
            by_node.get(node_id, []), key=lambda s: (s.start, s.end, s.task)
        )
        busy = 0.0
        for seg in segs:
            s, e = _clip(seg.start, seg.end, start, end)
            if e > s:
                busy += seg.cores * (e - s)
        quarantined = sum(
            max(0.0, min(e, end) - max(s, start))
            for s, e in q_intervals.get(node_id, [])
        )
        capacity = cores * horizon
        nodes.append(
            NodeUtilization(
                node_id=node_id,
                cores=cores,
                busy_core_seconds=busy,
                quarantined_seconds=quarantined,
                utilization=busy / capacity if capacity > 0 else 0.0,
                timeline=_node_timeline(segs, start, end),
            )
        )
        total_busy += busy
    total_capacity = total_cores * horizon
    return UtilizationReport(
        start=start,
        end=end,
        nodes=tuple(nodes),
        total_cores=total_cores,
        busy_core_seconds=total_busy,
        utilization=total_busy / total_capacity if total_capacity > 0 else 0.0,
    )


def utilization_from_events(
    records: Iterable[Any],
    start: float = 0.0,
    end: float | None = None,
) -> UtilizationReport:
    """Build the report from a run's log records (objects or JSONL form).

    Consumes ``run.allocation`` (node → cores), the task spans (their
    ``nodes`` placement; a span still open is clamped to the horizon), and
    ``run.quarantine-history``.  The horizon defaults to the latest instant
    a record holds (a task span's end, if closed), telemetry spans aside.
    A log object other than a Gantt span is read in place, for its time.
    """
    node_cores: dict[str, int] = {}
    runs: list[Mapping[str, Any]] = []
    history: list[tuple[float, str, str]] = []
    max_time = start
    for rec in records:
        if type(rec) is not dict:
            if isinstance(rec, TraceSpan):
                continue
            if not isinstance(rec, Span):
                max_time = max(max_time, float(rec.time))
                continue
            rec = rec.to_record()
        kind = rec.get("kind")
        if kind == "gantt-span":
            if rec.get("category") == "task" and rec.get("nodes"):
                runs.append(rec)
            max_time = max(max_time, float(rec["end"] if rec["end"] is not None else rec["time"]))
            continue
        if kind != "span":
            max_time = max(max_time, float(rec.get("time", start)))
        if kind != "point":
            continue
        name = rec.get("name")
        attrs = rec.get("attrs", {}) or {}
        if name == "run.allocation":
            for node_id, cores in attrs.get("nodes", {}).items():
                node_cores[node_id] = int(cores)
        elif name == "run.quarantine-history":
            for ev in attrs.get("events", []):
                history.append((float(ev[0]), ev[1], ev[2]))
    if end is None:
        end = max_time
    segments = [
        BusySegment(node_id=node_id, cores=int(cores), start=float(run["start"]),
                    end=float(run["end"]) if run["end"] is not None else end,
                    task=run["track"])
        for run in runs for node_id, cores in sorted(run["nodes"].items())
    ]
    return build_utilization(node_cores, segments, start=start, end=end,
                             quarantine_history=history)
