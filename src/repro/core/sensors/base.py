"""Sensor specification and the bound, pollable sensor instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.events import MetricUpdate
from repro.core.sensors.groupby import GRANULARITIES, group_key, task_of_key
from repro.core.sensors.preprocess import preprocess_value
from repro.core.sensors.reductions import reduce_values
from repro.core.sensors.sources import DataSource
from repro.errors import SensorError
from repro.staging.serialization import Sample
from repro.util.validation import check_in


@dataclass(frozen=True)
class GroupBySpec:
    """One granularity/reduction pair of a sensor's group-by clause."""

    granularity: str
    reduction: str = "MAX"

    def __post_init__(self) -> None:
        check_in(self.granularity, GRANULARITIES, "granularity")


@dataclass(frozen=True)
class JoinSpec:
    """Join this sensor's output with another's (paper §2.1 "Join").

    The canonical example is IPC: an instruction-count sensor joined to a
    cycle-count sensor with ``DIV``.
    """

    other_sensor_id: str
    operation: str = "DIV"

    _OPS = ("DIV", "MUL", "ADD", "SUB")

    def __post_init__(self) -> None:
        check_in(self.operation.upper(), self._OPS, "operation")

    def apply(self, a: float, b: float) -> float:
        op = self.operation.upper()
        if op == "DIV":
            if b == 0:
                raise SensorError("join DIV by zero")
            return a / b
        if op == "MUL":
            return a * b
        if op == "ADD":
            return a + b
        return a - b


@dataclass(frozen=True)
class SensorSpec:
    """A portable sensor definition, reusable across tasks and machines.

    Attributes:
        sensor_id: unique name, referenced by policies.
        source_type: one of ADIOS2 / TAUADIOS2 / DISKSCAN / FILEREAD /
            ERRORSTATUS.
        group_by: granularity/reduction pairs; one metric stream each.
        preprocess: optional payload-distilling op (NORM, MEAN, ...).
        join: optional join with another sensor's output.
    """

    sensor_id: str
    source_type: str
    group_by: tuple[GroupBySpec, ...] = (GroupBySpec("task", "MAX"),)
    preprocess: str | None = None
    join: JoinSpec | None = None

    def __post_init__(self) -> None:
        if not self.group_by:
            raise SensorError(f"sensor {self.sensor_id!r} needs at least one group-by")
        grans = [g.granularity for g in self.group_by]
        if len(set(grans)) != len(grans):
            raise SensorError(f"sensor {self.sensor_id!r}: duplicate granularity in group-by")


@dataclass
class SensorInstance:
    """A sensor bound to one monitored task with a concrete data source.

    "Sensors act as portable functions invoked using inputs that vary
    across workflow tasks and architectures" (§2.1) — the spec is the
    function; the instance is the invocation.
    """

    spec: SensorSpec
    workflow_id: str
    task: str
    source: DataSource
    params: dict[str, Any] = field(default_factory=dict)

    def poll(self, now: float) -> list[MetricUpdate]:
        """Procure new samples and turn them into metric updates.

        Samples are grouped per (group key, step, production time) so
        distinct observations stay distinct — an EQ-threshold policy must
        see every progress value, not only the batch extremum.
        """
        samples = self.source.poll(now)
        if not samples:
            return []
        updates: list[MetricUpdate] = []
        for gb in self.spec.group_by:
            groups: dict[tuple, list[Sample]] = {}
            for s in samples:
                groups.setdefault((group_key(gb.granularity, s), s.step, s.time), []).append(s)
            items = groups.items()
            if len(groups) > 1:
                items = sorted(items, key=lambda kv: (kv[0][2], kv[0][1]))
            for (key, step, time), members in items:
                values = [preprocess_value(self.spec.preprocess, m.value) for m in members]
                updates.append(
                    MetricUpdate(
                        sensor_id=self.spec.sensor_id,
                        workflow_id=self.workflow_id,
                        task=task_of_key(gb.granularity, key),
                        granularity=gb.granularity,
                        key=key,
                        value=reduce_values(gb.reduction, values),
                        time=time,
                        step=step,
                        var=members[0].var,
                    )
                )
        return updates

    def reconnect(self) -> None:
        """Reset the data source after the monitored task restarted."""
        self.source.reconnect()
