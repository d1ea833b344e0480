"""Low-level operations and action plans.

Arbitration maps accepted high-level actions onto "the function calls
understood by a resource manager or underlying resource management
service" (§2.3): here, the two primitives every action decomposes into —
stopping a task and starting a task on a concrete resource set — plus
plan ordering metadata.  "If any operation reduces the number of
processes of a task releasing resources, it should precede others that
use those resources": stops are phase 0, starts phase 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster.allocation import ResourceSet

PHASE_RELEASE = 0  # stop_task / shrink: frees cores
PHASE_ACQUIRE = 1  # start_task: consumes cores


@dataclass
class LowLevelOp:
    """One plugin invocation in a plan.

    Attributes:
        op: ``"stop_task"``, ``"start_task"`` or ``"reconfig_task"``.
        task: the target task.
        phase: ordering class (releases before acquires).
        graceful: stop flavour (graceful = finish the current timestep).
        resources: planned core assignment (start ops only).
        user_script: script to run before launch (start ops only).
        params: task parameters forwarded into the TaskContext.
        reason: provenance — the policy id, ``"victim"``, ``"dependency"``
            or ``"waiting-queue"``.
        op_key: idempotency key (``<plan_id>:<index>:<op>:<task>``),
            assigned once the plan gets its id; the actuation journal is
            keyed by it so a resumed plan never double-applies an op.
        exec_start / exec_end: stamped by Actuation, for the §4.6 cost
            breakdown (graceful-termination share of response time).
    """

    op: str
    task: str
    phase: int
    graceful: bool = True
    resources: ResourceSet | None = None
    user_script: str | None = None
    params: dict[str, Any] = field(default_factory=dict)
    reason: str = ""
    op_key: str = ""
    exec_start: float | None = None
    exec_end: float | None = None

    @property
    def exec_duration(self) -> float:
        if self.exec_start is None or self.exec_end is None:
            raise ValueError(f"op {self.describe()} not executed")
        return self.exec_end - self.exec_start

    def describe(self) -> str:
        if self.op == "start_task":
            n = self.resources.total_cores if self.resources else 0
            return f"start {self.task} ({n} procs) [{self.reason}]"
        if self.op == "reconfig_task":
            return f"reconfig {self.task} {self.params} [{self.reason}]"
        flavour = "graceful" if self.graceful else "kill"
        return f"stop {self.task} ({flavour}) [{self.reason}]"

    def to_dict(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "task": self.task,
            "phase": self.phase,
            "graceful": self.graceful,
            "resources": self.resources.as_dict() if self.resources is not None else None,
            "user_script": self.user_script,
            "params": dict(self.params),
            "reason": self.reason,
            "op_key": self.op_key,
            "exec_start": self.exec_start,
            "exec_end": self.exec_end,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "LowLevelOp":
        resources = d.get("resources")
        return cls(
            op=d["op"],
            task=d["task"],
            phase=int(d["phase"]),
            graceful=bool(d.get("graceful", True)),
            resources=ResourceSet(resources) if resources is not None else None,
            user_script=d.get("user_script"),
            params=dict(d.get("params", {})),
            reason=d.get("reason", ""),
            op_key=d.get("op_key", ""),
            exec_start=d.get("exec_start"),
            exec_end=d.get("exec_end"),
        )


@dataclass(frozen=True)
class DegradationReport:
    """Structured account of a plan that could not execute in full.

    Actuation attaches one of these to a plan whenever at least one
    low-level operation failed: graceful degradation means the rest of
    the plan still ran, the failures are itemized, and any resources a
    failed acquire left booked were released by compensating ops.
    """

    plan_id: str
    time: float
    failed_ops: list[str]       # "<op description>: <error>" per failure
    compensations: list[str]    # compensating release ops that were applied

    @property
    def degraded(self) -> bool:
        return bool(self.failed_ops)

    def describe(self) -> str:
        lines = [f"plan {self.plan_id} degraded ({len(self.failed_ops)} failed ops)"]
        lines.extend(f"  failed: {f}" for f in self.failed_ops)
        lines.extend(f"  compensated: {c}" for c in self.compensations)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "plan_id": self.plan_id,
            "time": self.time,
            "failed_ops": list(self.failed_ops),
            "compensations": list(self.compensations),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "DegradationReport":
        return cls(
            plan_id=d["plan_id"],
            time=float(d["time"]),
            failed_ops=list(d.get("failed_ops", [])),
            compensations=list(d.get("compensations", [])),
        )


@dataclass
class ActionPlan:
    """An ordered, feasible set of low-level operations plus accounting."""

    plan_id: str
    workflow_id: str
    created: float
    ops: list[LowLevelOp]
    trigger_time: float
    accepted: list[str] = field(default_factory=list)   # accepted high-level actions
    discarded: list[str] = field(default_factory=list)  # dropped suggestions
    victims: list[str] = field(default_factory=list)
    reassignment: dict[str, ResourceSet] = field(default_factory=dict)
    # filled by Actuation:
    execution_start: float | None = None
    execution_end: float | None = None
    degradation: DegradationReport | None = None

    def ordered_ops(self) -> list[LowLevelOp]:
        """Ops in execution order: releases first, stable within phase."""
        return sorted(self.ops, key=lambda o: o.phase)

    def assign_op_keys(self) -> None:
        """Stamp each op's idempotency key (requires a final plan_id)."""
        if not self.plan_id:
            raise ValueError("assign_op_keys() before the plan got its id")
        for idx, op in enumerate(self.ordered_ops()):
            op.op_key = f"{self.plan_id}:{idx}:{op.op}:{op.task}"

    @property
    def response_time(self) -> float:
        """Plan finalization to actuation completion (§4.4's 107 s / 36 s)."""
        if self.execution_end is None:
            raise ValueError(f"plan {self.plan_id} not yet executed")
        return self.execution_end - self.created

    def stop_share(self) -> float:
        """Fraction of the response spent waiting for task termination.

        The paper measured ≈97% of response time waiting for tasks to
        terminate gracefully (§4.6).
        """
        if self.execution_end is None or self.execution_start is None:
            raise ValueError(f"plan {self.plan_id} not yet executed")
        total = self.execution_end - self.created
        if total <= 0:
            return 0.0
        stop_time = sum(
            op.exec_duration
            for op in self.ops
            if op.op == "stop_task" and op.exec_start is not None and op.exec_end is not None
        )
        return min(1.0, stop_time / total)

    def describe(self) -> str:
        lines = [f"plan {self.plan_id} @ {self.created:.2f}s (trigger {self.trigger_time:.2f}s)"]
        lines.extend(f"  {op.describe()}" for op in self.ordered_ops())
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "plan_id": self.plan_id,
            "workflow_id": self.workflow_id,
            "created": self.created,
            "ops": [op.to_dict() for op in self.ops],
            "trigger_time": self.trigger_time,
            "accepted": list(self.accepted),
            "discarded": list(self.discarded),
            "victims": list(self.victims),
            "reassignment": {t: rs.as_dict() for t, rs in self.reassignment.items()},
            "execution_start": self.execution_start,
            "execution_end": self.execution_end,
            "degradation": self.degradation.to_dict() if self.degradation else None,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ActionPlan":
        degradation = d.get("degradation")
        return cls(
            plan_id=d["plan_id"],
            workflow_id=d["workflow_id"],
            created=float(d["created"]),
            ops=[LowLevelOp.from_dict(o) for o in d.get("ops", [])],
            trigger_time=float(d["trigger_time"]),
            accepted=list(d.get("accepted", [])),
            discarded=list(d.get("discarded", [])),
            victims=list(d.get("victims", [])),
            reassignment={
                t: ResourceSet(rs) for t, rs in d.get("reassignment", {}).items()
            },
            execution_start=d.get("execution_start"),
            execution_end=d.get("execution_end"),
            degradation=DegradationReport.from_dict(degradation) if degradation else None,
        )
