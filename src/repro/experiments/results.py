"""Scenario result container shared by every experiment reproduction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.events import MetricUpdate
from repro.core.lowlevel import ActionPlan
from repro.sim.trace import RunLog
from repro.telemetry import NullTracer, Tracer
from repro.wms.launcher import Savanna


@dataclass
class ScenarioResult:
    """Everything a benchmark needs from one experiment run."""

    name: str
    machine: str
    use_dyflow: bool
    makespan: float
    trace: RunLog
    plans: list[ActionPlan] = field(default_factory=list)
    metric_history: list[MetricUpdate] = field(default_factory=list)
    launcher: Savanna | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    tracer: Tracer | NullTracer | None = None

    # -- derived views -----------------------------------------------------------
    def response_times(self) -> list[tuple[str, float]]:
        return [
            (p.plan_id, p.response_time) for p in self.plans if p.execution_end is not None
        ]

    def task_runs(self, task: str) -> list[tuple[float, float]]:
        """(start, end) of every instance of *task*, in time order."""
        return [
            (s.start, s.end)
            for s in self.trace.spans_for(track=task, category="task")
            if s.end is not None
        ]

    def pace_series(self, task: str, sensor_id: str = "PACE") -> list[tuple[float, float]]:
        """(time, value) pairs of a task's metric history (Fig. 9 data)."""
        return [
            (u.time, u.value)
            for u in self.metric_history
            if u.sensor_id == sensor_id and u.task == task
        ]

    def final_nprocs(self, task: str) -> int:
        assert self.launcher is not None
        rec = self.launcher.record(task)
        return rec.current.nprocs if rec.current is not None else 0

    def incarnations(self, task: str) -> int:
        assert self.launcher is not None
        return self.launcher.record(task).incarnations

    def summary_rows(self) -> list[dict[str, Any]]:
        """One row per task: instances, final size, end state — for tables."""
        assert self.launcher is not None
        rows = []
        for name, rec in self.launcher.records.items():
            current = rec.current
            rows.append(
                {
                    "task": name,
                    "instances": rec.incarnations,
                    "final_nprocs": current.nprocs if current else 0,
                    "state": current.state.value if current else "never-started",
                    "exit_code": current.exit_code if current else None,
                    "last_step": current.notes.get("last_step") if current else None,
                }
            )
        return rows
