"""Workflow specification: tasks and their couplings.

The arbitration rules in the paper distinguish *tight* dependencies (the
dependent runs concurrently with its parent and receives data via an
in-situ medium — stopping the parent forces the dependent to restart)
from *loose* ones (data via disk; the dependent runs uncoupled).  Both
live here, and the spec validates that tight couplings form a DAG.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.base import IterativeApp
from repro.errors import WorkflowSpecError
from repro.util.validation import check_positive, find_cycle


class CouplingType(enum.Enum):
    """How a dependent task is coupled to its parent (paper §2.3).

    TIGHT — runs concurrently with the parent and receives data in situ;
    stopping or restarting the parent forces the dependent to restart.
    LOOSE — runs uncoupled, data via disk; no restart propagation.
    """

    TIGHT = "tight"
    LOOSE = "loose"


@dataclass(frozen=True)
class DependencySpec:
    """``task`` depends on ``parent`` with the given coupling type."""

    task: str
    parent: str
    type: CouplingType = CouplingType.TIGHT


@dataclass
class TaskSpec:
    """One workflow task.

    Attributes:
        name: unique task name within the workflow.
        app: the behaviour model run by each instance, or a factory
            ``() -> IterativeApp`` when instances must not share state.
        nprocs: initial process (core) count.
        procs_per_node: placement constraint (Tables 1–3 all specify one).
        autostart: start with the workflow; False = wait for a policy
            START (XGCa initially "waits in the queue", §4.3).
        params: initial task parameters, visible in the TaskContext.
    """

    name: str
    app: IterativeApp | Callable[[], IterativeApp]
    nprocs: int
    procs_per_node: int | None = None
    autostart: bool = True
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive(self.nprocs, "nprocs")
        if self.procs_per_node is not None:
            check_positive(self.procs_per_node, "procs_per_node")

    def make_app(self) -> IterativeApp:
        return self.app() if callable(self.app) else self.app


class WorkflowSpec:
    """A named set of tasks plus their dependency edges."""

    def __init__(
        self,
        workflow_id: str,
        tasks: list[TaskSpec],
        dependencies: list[DependencySpec] | None = None,
    ) -> None:
        if not tasks:
            raise WorkflowSpecError("workflow needs at least one task")
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            raise WorkflowSpecError(f"duplicate task names in workflow {workflow_id!r}")
        self.workflow_id = workflow_id
        self.tasks: dict[str, TaskSpec] = {t.name: t for t in tasks}
        self.dependencies: list[DependencySpec] = list(dependencies or [])
        self._validate()

    def _validate(self) -> None:
        for dep in self.dependencies:
            for endpoint in (dep.task, dep.parent):
                if endpoint not in self.tasks:
                    raise WorkflowSpecError(
                        f"dependency references unknown task {endpoint!r}"
                    )
            if dep.task == dep.parent:
                raise WorkflowSpecError(f"task {dep.task!r} cannot depend on itself")
        tight: dict[str, list[str]] = {}
        for d in self.dependencies:
            if d.type == CouplingType.TIGHT:
                tight.setdefault(d.parent, []).append(d.task)
        cycle = find_cycle(tight)
        if cycle is not None:
            edges = list(zip(cycle, cycle[1:]))
            raise WorkflowSpecError(f"tight dependencies form a cycle: {edges}")

    # -- queries -----------------------------------------------------------------
    def task(self, name: str) -> TaskSpec:
        spec = self.tasks.get(name)
        if spec is None:
            raise WorkflowSpecError(f"no task {name!r} in workflow {self.workflow_id!r}")
        return spec

    def task_names(self) -> list[str]:
        return list(self.tasks)

    def tight_parents(self, name: str) -> list[str]:
        """Parents *name* consumes from in situ, in declaration order."""
        return [
            d.parent
            for d in self.dependencies
            if d.task == name and d.type == CouplingType.TIGHT
        ]

    def parents(self, name: str) -> list[str]:
        return [d.parent for d in self.dependencies if d.task == name]

    def tight_dependents(self, name: str) -> list[str]:
        """Tasks tightly coupled to *name* (must restart when it does)."""
        return [
            d.task
            for d in self.dependencies
            if d.parent == name and d.type == CouplingType.TIGHT
        ]

    def transitive_tight_dependents(self, name: str) -> list[str]:
        """All downstream tight dependents, breadth-first, deduplicated.

        When Isosurface restarts, Rendering must restart too (§4.4); if
        Rendering had its own tight consumers they would follow, etc.
        """
        out: list[str] = []
        frontier = [name]
        seen = {name}
        while frontier:
            nxt: list[str] = []
            for t in frontier:
                for d in self.tight_dependents(t):
                    if d not in seen:
                        seen.add(d)
                        out.append(d)
                        nxt.append(d)
            frontier = nxt
        return out

    def autostart_tasks(self) -> list[str]:
        return [name for name, spec in self.tasks.items() if spec.autostart]

    def total_initial_procs(self) -> int:
        return sum(t.nprocs for t in self.tasks.values() if t.autostart)
