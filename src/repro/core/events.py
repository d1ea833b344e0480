"""Metric updates: the data flowing from Monitor to Decision."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class MetricUpdate:
    """One computed metric value at one granularity.

    Attributes:
        sensor_id: producing sensor.
        workflow_id: owning workflow.
        task: task the metric describes ("" for workflow-level metrics).
        granularity: ``task``, ``node-task``, ``workflow`` or
            ``node-workflow``.
        key: the group key (e.g. ``("Isosurface",)`` or
            ``("Isosurface", "summit0003")``).
        value: the reduced metric value.
        time: when the underlying data was produced.
        step: application step the value belongs to (-1 if n/a).
        var: the underlying variable name.
    """

    sensor_id: str
    workflow_id: str
    task: str
    granularity: str
    key: tuple
    value: float
    time: float
    step: int = -1
    var: str = ""

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form (used by the threaded driver)."""
        return {
            "sensor_id": self.sensor_id,
            "workflow_id": self.workflow_id,
            "task": self.task,
            "granularity": self.granularity,
            "key": list(self.key),
            "value": self.value,
            "time": self.time,
            "step": self.step,
            "var": self.var,
        }

    def to_record(self) -> dict[str, Any]:
        return {"kind": "update", **self.to_dict()}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "MetricUpdate":
        return cls(
            sensor_id=d["sensor_id"],
            workflow_id=d["workflow_id"],
            task=d["task"],
            granularity=d["granularity"],
            key=tuple(d["key"]),
            value=float(d["value"]),
            time=float(d["time"]),
            step=int(d.get("step", -1)),
            var=d.get("var", ""),
        )
