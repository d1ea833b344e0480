"""Static verification of a parsed :class:`DyflowSpec`.

The verifier never raises on spec content: every defect becomes a
:class:`~repro.lint.diagnostics.Diagnostic`.  It subsumes the checks
:meth:`DyflowSpec.validate` enforces with exceptions (so hand-built
specs that bypassed validation still lint), and adds the analyses a
schema cannot express: resource feasibility against a machine model,
threshold-interval subsumption and co-fire conflicts between policies,
rule-dependency cycles, and parameter-range sanity for the
``<resilience>``/``<telemetry>``/``<journal>``/``<observability>``
elements.

Checks that need context beyond the document take it as optional
arguments: *machine* (a :class:`~repro.cluster.machine.Machine`) enables
the DY2xx placement checks; *workflow* (a
:class:`~repro.wms.spec.WorkflowSpec` or a plain collection of task
names) enables the DY110/DY111 cross-checks and sharpens DY106.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterator

from repro.core.actions import ActionType, actions_conflict
from repro.core.policy import PolicyApplication, PolicySpec
from repro.errors import ReproError
from repro.lint.diagnostics import Diagnostic, Severity, make, sort_diagnostics
from repro.util.validation import find_cycle
from repro.util.xmlfield import xml_fields
from repro.xmlspec.model import DyflowSpec

# Pseudo-task published by the health engine; HEALTH-source bindings
# monitor the orchestrator itself and are exempt from workflow checks.
_HEALTH_SOURCE = "HEALTH"


# --------------------------------------------------------------------------- #
# threshold intervals
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Interval:
    """The set of metric values satisfying one evaluation condition."""

    lo: float
    hi: float
    lo_open: bool
    hi_open: bool

    def is_empty(self) -> bool:
        if math.isnan(self.lo) or math.isnan(self.hi):
            return True
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return self.lo_open or self.hi_open or math.isinf(self.lo)
        return False

    def overlaps(self, other: "_Interval") -> bool:
        if self.is_empty() or other.is_empty():
            return False
        lo, lo_open = max(
            (self.lo, self.lo_open), (other.lo, other.lo_open)
        )
        hi, hi_open = min(
            (self.hi, not self.hi_open), (other.hi, not other.hi_open)
        )
        hi_open = not hi_open
        return not _Interval(lo, hi, lo_open, hi_open).is_empty()

    def subsumes(self, other: "_Interval") -> bool:
        """Is *other* a subset of self?"""
        if other.is_empty():
            return True
        if self.is_empty():
            return False
        lo_ok = self.lo < other.lo or (
            self.lo == other.lo and (not self.lo_open or other.lo_open)
        )
        hi_ok = self.hi > other.hi or (
            self.hi == other.hi and (not self.hi_open or other.hi_open)
        )
        return lo_ok and hi_ok


_INF = float("inf")


def fire_interval(eval_op: str, threshold: float) -> _Interval | None:
    """Value interval on which the condition holds; None when the
    condition is not interval-shaped (NE)."""
    op = eval_op.upper()
    if op == "GT":
        return _Interval(threshold, _INF, True, True)
    if op == "GE":
        return _Interval(threshold, _INF, False, True)
    if op == "LT":
        return _Interval(-_INF, threshold, True, True)
    if op == "LE":
        return _Interval(-_INF, threshold, True, False)
    if op == "EQ":
        return _Interval(threshold, threshold, False, False)
    return None  # NE: the complement of a point; not an interval


# --------------------------------------------------------------------------- #
# xml-path helpers
# --------------------------------------------------------------------------- #
def _sensor_path(sid: str) -> str:
    return f"monitor/sensors/sensor[@id='{sid}']"


def _policy_path(pid: str) -> str:
    return f"decision/policies/policy[@id='{pid}']"


def _apply_path(app: PolicyApplication) -> str:
    return (
        f"decision/apply-on[@workflowId='{app.workflow_id}']"
        f"/apply-policy[@policyId='{app.policy_id}']"
    )


def _rule_path(workflow_id: str) -> str:
    return f"arbitration/rules/rule-for[@workflowId='{workflow_id}']"


def _mt_path(task: str, workflow_id: str) -> str:
    return (
        f"monitor/monitor-tasks/monitor-task[@name='{task}']"
        f"[@workflowId='{workflow_id}']"
    )


# --------------------------------------------------------------------------- #
# the verifier
# --------------------------------------------------------------------------- #
def verify_spec(
    spec: DyflowSpec,
    machine=None,
    workflow=None,
) -> list[Diagnostic]:
    """Statically verify *spec*; returns deterministic diagnostics.

    *machine* is a :class:`~repro.cluster.machine.Machine` (e.g.
    ``summit()``); *workflow* is a
    :class:`~repro.wms.spec.WorkflowSpec` or an iterable of task names.
    Both are optional — context-dependent checks are skipped without
    them.
    """
    diags: list[Diagnostic] = []
    task_specs, task_names = _workflow_view(workflow)

    diags += _check_references(spec)
    diags += _check_usage(spec)
    diags += _check_workflow_refs(spec, task_names)
    diags += _check_bindings(spec)
    diags += _check_placement(spec, machine, task_specs)
    diags += _check_rule_cycles(spec)
    diags += _check_policy_interactions(spec)
    diags += _check_declared_ranges(spec)
    diags += _check_parameter_ranges(spec)
    diags += _check_tenants(spec)
    diags += _check_fleet_slos(spec)
    # Imported here: dataflow imports our interval math at module level,
    # so the top-level import must stay one-directional.
    from repro.lint.dataflow import analyze_dataflow

    diags += analyze_dataflow(spec, machine=machine, workflow=workflow)
    return sort_diagnostics(diags)


def _workflow_view(workflow) -> tuple[dict, set[str] | None]:
    """(task name -> TaskSpec or None, known task names or None)."""
    if workflow is None:
        return {}, None
    tasks = getattr(workflow, "tasks", None)
    if isinstance(tasks, dict):
        return dict(tasks), set(tasks)
    names = set(workflow)
    return {}, names


def _health_sensors(spec: DyflowSpec) -> set[str]:
    return {
        sid
        for sid, s in spec.sensors.items()
        if s.source_type.upper() == _HEALTH_SOURCE
    }


# -- DY101/102/103/104/105/107: dangling references ------------------------- #
def _check_references(spec: DyflowSpec) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for mt in spec.monitor_tasks:
        if mt.sensor_id not in spec.sensors:
            out.append(make(
                "DY101",
                f"monitor-task {mt.task!r} uses unknown sensor {mt.sensor_id!r}",
                xml_path=_mt_path(mt.task, mt.workflow_id),
            ))
    for policy in spec.policies.values():
        sensor = spec.sensors.get(policy.sensor_id)
        if sensor is None:
            out.append(make(
                "DY102",
                f"policy {policy.policy_id!r} assesses unknown sensor "
                f"{policy.sensor_id!r}",
                xml_path=_policy_path(policy.policy_id),
            ))
        else:
            grans = {g.granularity for g in sensor.group_by}
            if policy.granularity not in grans:
                out.append(make(
                    "DY104",
                    f"policy {policy.policy_id!r} wants granularity "
                    f"{policy.granularity!r} but sensor {policy.sensor_id!r} "
                    f"only groups by {sorted(grans)}",
                    xml_path=_policy_path(policy.policy_id),
                ))
    for app in spec.applications:
        if app.policy_id not in spec.policies:
            out.append(make(
                "DY103",
                f"apply-policy references unknown policy {app.policy_id!r}",
                xml_path=_apply_path(app),
            ))
    for rule in spec.rules.values():
        for pid in rule.policy_priorities:
            if pid not in spec.policies:
                out.append(make(
                    "DY105",
                    f"policy-priority for unknown policy {pid!r}",
                    xml_path=_rule_path(rule.workflow_id),
                ))
    for sid, sensor in spec.sensors.items():
        if sensor.join is None:
            continue
        other = sensor.join.other_sensor_id
        if other == sid:
            out.append(make(
                "DY107",
                f"sensor {sid!r} joins with itself",
                xml_path=_sensor_path(sid),
            ))
        elif other not in spec.sensors:
            out.append(make(
                "DY107",
                f"sensor {sid!r} joins with unknown sensor {other!r}",
                xml_path=_sensor_path(sid),
            ))
    return out


# -- DY106/108/109: dead constructs ----------------------------------------- #
def spec_task_names(spec: DyflowSpec) -> set[str]:
    """Every task name the document itself mentions."""
    names = {mt.task for mt in spec.monitor_tasks}
    for app in spec.applications:
        names.update(app.act_on_tasks)
        if app.assess_task:
            names.add(app.assess_task)
    for rule in spec.rules.values():
        for dep in rule.dependencies:
            names.add(dep.task)
            names.add(dep.parent)
    return names


def unmonitored_rule_tasks(spec: DyflowSpec) -> list[tuple[str, str]]:
    """(workflow_id, task) pairs for rule task refs naming nothing the
    document monitors or acts on — the latent parser gap the strict
    parse mode rejects (see :func:`repro.xmlspec.parse_dyflow_xml`)."""
    known = spec_task_names(spec)
    out: list[tuple[str, str]] = []
    for rule in spec.rules.values():
        for task in sorted(rule.task_priorities):
            if task not in known:
                out.append((rule.workflow_id, task))
    return out


def _check_usage(spec: DyflowSpec) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    used_sensors = {p.sensor_id for p in spec.policies.values()}
    used_sensors |= {mt.sensor_id for mt in spec.monitor_tasks}
    for sid, sensor in spec.sensors.items():
        if sensor.join is not None:
            used_sensors.add(sensor.join.other_sensor_id)
    for sid in spec.sensors:
        if sid not in used_sensors:
            out.append(make(
                "DY108",
                f"sensor {sid!r} is bound to no monitor-task and assessed "
                "by no policy",
                xml_path=_sensor_path(sid),
                data=(("sensor_id", sid),),
            ))
    applied = {app.policy_id for app in spec.applications}
    for pid in spec.policies:
        if pid not in applied:
            out.append(make(
                "DY109",
                f"policy {pid!r} is defined but never applied",
                xml_path=_policy_path(pid),
                data=(("policy_id", pid),),
            ))
    for workflow_id, task in unmonitored_rule_tasks(spec):
        out.append(make(
            "DY106",
            f"rule for workflow {workflow_id!r} prioritizes task {task!r}, "
            "which no monitor-task, apply-policy, or dependency mentions",
            xml_path=_rule_path(workflow_id),
        ))
    return out


# -- DY110/111 + workflow-sharpened DY106 ----------------------------------- #
def _check_workflow_refs(spec: DyflowSpec, task_names: set[str] | None) -> list[Diagnostic]:
    if task_names is None:
        return []
    out: list[Diagnostic] = []
    health = _health_sensors(spec)
    for mt in spec.monitor_tasks:
        if mt.sensor_id in health:
            continue  # monitors the orchestrator, not a workflow task
        if mt.task not in task_names:
            out.append(make(
                "DY110",
                f"monitor-task {mt.task!r} is not a task of the workflow "
                f"(tasks: {sorted(task_names)})",
                xml_path=_mt_path(mt.task, mt.workflow_id),
            ))
    for app in spec.applications:
        for target in app.act_on_tasks:
            if target not in task_names:
                out.append(make(
                    "DY111",
                    f"apply-policy {app.policy_id!r} acts on {target!r}, "
                    "which the workflow does not define",
                    xml_path=_apply_path(app),
                ))
        policy = spec.policies.get(app.policy_id)
        assessed_health = policy is not None and policy.sensor_id in health
        if app.assess_task and app.assess_task not in task_names and not assessed_health:
            out.append(make(
                "DY111",
                f"apply-policy {app.policy_id!r} assesses {app.assess_task!r}, "
                "which the workflow does not define",
                xml_path=_apply_path(app),
            ))
    for rule in spec.rules.values():
        for task in sorted(rule.task_priorities):
            if task not in task_names:
                out.append(make(
                    "DY106",
                    f"rule for workflow {rule.workflow_id!r} prioritizes "
                    f"{task!r}, which the workflow does not define",
                    xml_path=_rule_path(rule.workflow_id),
                ))
        for dep in rule.dependencies:
            for endpoint in (dep.task, dep.parent):
                if endpoint not in task_names:
                    out.append(make(
                        "DY106",
                        f"rule dependency references {endpoint!r}, which the "
                        "workflow does not define",
                        xml_path=_rule_path(rule.workflow_id),
                    ))
    return out


# -- DY112: policies no monitor binding can ever feed ------------------------ #
def _check_bindings(spec: DyflowSpec) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    health = _health_sensors(spec)
    bound: set[tuple[str, str]] = {(mt.sensor_id, mt.task) for mt in spec.monitor_tasks}
    bound_sensors = {mt.sensor_id for mt in spec.monitor_tasks}
    for idx, app in enumerate(spec.applications):
        policy = spec.policies.get(app.policy_id)
        if policy is None or policy.sensor_id not in spec.sensors:
            continue  # DY103/DY102 already covers it
        if policy.sensor_id in health:
            continue  # the health engine feeds HEALTH streams directly
        if policy.granularity in ("task", "node-task") and app.assess_task:
            if (policy.sensor_id, app.assess_task) not in bound:
                out.append(make(
                    "DY112",
                    f"policy {app.policy_id!r} assesses task "
                    f"{app.assess_task!r} via sensor {policy.sensor_id!r}, "
                    "but no monitor-task binds that sensor to that task — "
                    "the policy can never fire",
                    xml_path=_apply_path(app),
                    data=(("app_index", str(idx)), ("policy_id", app.policy_id)),
                ))
        elif policy.sensor_id not in bound_sensors:
            out.append(make(
                "DY112",
                f"policy {app.policy_id!r} assesses sensor "
                f"{policy.sensor_id!r}, which no monitor-task binds — "
                "the policy can never fire",
                xml_path=_apply_path(app),
                data=(("app_index", str(idx)), ("policy_id", app.policy_id)),
            ))
    return out


# -- DY201/202/203: resource feasibility ------------------------------------ #
def _check_placement(spec: DyflowSpec, machine, task_specs: dict) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    total_cores = machine.total_cores if machine is not None else None
    if machine is not None and task_specs:
        cores_per_node = machine.cores_per_node
        num_nodes = len(machine.nodes)
        initial = sum(t.nprocs for t in task_specs.values() if t.autostart)
        if initial > total_cores:
            out.append(make(
                "DY201",
                f"autostart tasks need {initial} cores but machine "
                f"{machine.name!r} has {total_cores}",
                xml_path="dyflow",
            ))
        for name, task in sorted(task_specs.items()):
            if task.nprocs > total_cores:
                out.append(make(
                    "DY202",
                    f"task {name!r} needs {task.nprocs} cores but machine "
                    f"{machine.name!r} has {total_cores} in total",
                    xml_path="dyflow",
                ))
            if task.procs_per_node is not None:
                if task.procs_per_node > cores_per_node:
                    out.append(make(
                        "DY202",
                        f"task {name!r} gangs {task.procs_per_node} procs "
                        f"per node but nodes have {cores_per_node} cores",
                        xml_path="dyflow",
                    ))
                elif math.ceil(task.nprocs / task.procs_per_node) > num_nodes:
                    need = math.ceil(task.nprocs / task.procs_per_node)
                    out.append(make(
                        "DY202",
                        f"task {name!r} needs {need} nodes at "
                        f"{task.procs_per_node} procs/node but machine "
                        f"{machine.name!r} has {num_nodes}",
                        xml_path="dyflow",
                    ))
    for app in spec.applications:
        policy = spec.policies.get(app.policy_id)
        if policy is None or policy.action not in (ActionType.ADDCPU, ActionType.RMCPU):
            continue
        params = dict(policy.default_params)
        params.update(app.action_params)
        adjust = params.get("adjust-by", 1)
        if not isinstance(adjust, (int, float)) or adjust <= 0:
            out.append(make(
                "DY203",
                f"apply-policy {app.policy_id!r}: adjust-by must be a "
                f"positive number, got {adjust!r}",
                xml_path=_apply_path(app),
            ))
            continue
        if total_cores is not None and adjust > total_cores:
            out.append(make(
                "DY203",
                f"apply-policy {app.policy_id!r}: adjust-by {adjust} exceeds "
                f"the machine's {total_cores} cores — the action can never "
                "be granted",
                xml_path=_apply_path(app),
            ))
            continue
        if (
            total_cores is not None
            and policy.action is ActionType.ADDCPU
            and task_specs
        ):
            for target in app.act_on_tasks:
                task = task_specs.get(target)
                if task is not None and task.nprocs + adjust > total_cores:
                    out.append(make(
                        "DY203",
                        f"ADDCPU on {target!r} would need "
                        f"{task.nprocs + int(adjust)} cores but machine has "
                        f"{total_cores}",
                        xml_path=_apply_path(app),
                    ))
    return out


# -- DY204: rule dependency cycles ------------------------------------------ #
def _check_rule_cycles(spec: DyflowSpec) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for rule in spec.rules.values():
        edges: dict[str, list[str]] = {}
        for dep in rule.dependencies:
            edges.setdefault(dep.parent, []).append(dep.task)
        cycle = find_cycle(edges)
        if cycle is not None:
            out.append(make(
                "DY204",
                f"rule dependencies for workflow {rule.workflow_id!r} form "
                f"a cycle: {' -> '.join(cycle)} — arbitration would wait on "
                "itself",
                xml_path=_rule_path(rule.workflow_id),
            ))
    return out


# -- DY301/302/303: policy interaction analysis ----------------------------- #
def _check_policy_interactions(spec: DyflowSpec) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for pid, policy in spec.policies.items():
        if _unsatisfiable(policy):
            out.append(make(
                "DY303",
                f"policy {pid!r}: condition "
                f"{policy.eval_op.upper()} {policy.threshold} can never hold "
                "for a finite metric value",
                xml_path=_policy_path(pid),
            ))
    for app_a, pol_a, app_b, pol_b in same_stream_pairs(spec):
        shared = sorted(set(app_a.act_on_tasks) & set(app_b.act_on_tasks))
        if not shared:
            continue
        ia = fire_interval(pol_a.eval_op, pol_a.threshold)
        ib = fire_interval(pol_b.eval_op, pol_b.threshold)
        out += _subsumption(app_a, pol_a, app_b, pol_b, ia, ib, shared)
        out += _conflict(spec, app_a, pol_a, app_b, pol_b, ia, ib, shared)
    return out


def same_stream_pairs(
    spec: DyflowSpec,
) -> Iterator[tuple[PolicyApplication, PolicySpec, PolicyApplication, PolicySpec]]:
    """Pairs of applications that assess the same metric stream.

    Two ``<apply-policy>`` entries can only interact when workflow,
    sensor, granularity and assess-task all agree.  Yields
    ``(app_a, policy_a, app_b, policy_b)`` for every such pair with *a*
    before *b* in document order, sorted by (position of a, position of
    b) — the order an all-pairs scan would find them — while visiting
    only the members of each application's own bucket.  Applications of
    unknown policies (DY103) are skipped.
    """
    apps = [
        (app, spec.policies[app.policy_id])
        for app in spec.applications
        if app.policy_id in spec.policies
    ]
    buckets: dict[tuple, list] = {}
    later: list[tuple[list, int]] = []  # per application: (its bucket, the slot after its own)
    for app, pol in apps:
        bucket = buckets.setdefault(
            (app.workflow_id, pol.sensor_id, pol.granularity, app.assess_task), []
        )
        bucket.append((app, pol))
        later.append((bucket, len(bucket)))
    for (app_a, pol_a), (bucket, start) in zip(apps, later):
        for app_b, pol_b in islice(bucket, start, None):
            yield app_a, pol_a, app_b, pol_b


def _unsatisfiable(policy: PolicySpec) -> bool:
    thr = policy.threshold
    if math.isnan(thr):
        return policy.eval_op.upper() != "NE"
    interval = fire_interval(policy.eval_op, thr)
    return interval is not None and interval.is_empty()


def _subsumption(app_a, pol_a, app_b, pol_b, ia, ib, shared) -> list[Diagnostic]:
    if pol_a.policy_id == pol_b.policy_id or pol_a.action != pol_b.action:
        return []
    if ia is None or ib is None:
        return []
    if ia.subsumes(ib):
        outer, inner = pol_a, pol_b
    elif ib.subsumes(ia):
        outer, inner = pol_b, pol_a
    else:
        return []
    return [make(
        "DY301",
        f"policy {inner.policy_id!r} ({inner.eval_op.upper()} "
        f"{inner.threshold}) is subsumed by {outer.policy_id!r} "
        f"({outer.eval_op.upper()} {outer.threshold}) on "
        f"{shared} — whenever it fires, the wider policy fires the same "
        f"{outer.action.value} too",
        xml_path=_policy_path(inner.policy_id),
        data=(
            ("policy_id", inner.policy_id),
            ("subsumed_by", outer.policy_id),
        ),
    )]


def _conflict(spec, app_a, pol_a, app_b, pol_b, ia, ib, shared) -> list[Diagnostic]:
    if not actions_conflict(pol_a.action, pol_b.action):
        return []
    # NE conditions overlap with everything except their excluded point.
    overlap = True if ia is None or ib is None else ia.overlaps(ib)
    if not overlap:
        return []
    rule = spec.rules.get(app_a.workflow_id)
    if rule is not None:
        ra = rule.policy_priorities.get(pol_a.policy_id)
        rb = rule.policy_priorities.get(pol_b.policy_id)
        if ra is not None and rb is not None and ra != rb:
            return []  # arbitration resolves the pair deterministically
    return [make(
        "DY302",
        f"policies {pol_a.policy_id!r} ({pol_a.action.value}) and "
        f"{pol_b.policy_id!r} ({pol_b.action.value}) can co-fire on "
        f"{shared} with contradictory actions and no policy-priority "
        "rule ranks them",
        xml_path=_apply_path(app_a),
    )]


# -- DY4xx: parameter ranges -------------------------------------------------- #
_RANGE_CODES = {
    "resilience": "DY407",
    "journal": "DY403",
    "observability": "DY404",
    "tenants": "DY407",
}


def _check_declared_ranges(spec: DyflowSpec) -> list[Diagnostic]:
    """The ranges the spec dataclasses declare, one code per section."""
    out: list[Diagnostic] = []
    for x in xml_fields(DyflowSpec):
        part = getattr(spec, x.attr)
        if part is None:
            continue
        try:
            part.validate()
        except ReproError as err:
            out.append(make(_RANGE_CODES[x.attr], str(err), xml_path=x.name))
    return out


def _check_parameter_ranges(spec: DyflowSpec) -> list[Diagnostic]:
    """Rules relating two parameters, which no single field can declare."""
    out: list[Diagnostic] = []
    res = spec.resilience
    if res is not None:
        retry = res.retry
        if retry is not None and retry.backoff_max < retry.backoff_base:
            out.append(make(
                "DY401",
                f"retry backoff-max {retry.backoff_max} is below backoff-base "
                f"{retry.backoff_base}; every delay is clamped to the cap",
                xml_path="resilience/retry",
                data=(("backoff_base", repr(retry.backoff_base)),),
            ))
        wd = res.watchdog
        if wd is not None and wd.poll > wd.heartbeat_timeout > 0:
            out.append(make(
                "DY402",
                f"watchdog polls every {wd.poll}s but the heartbeat timeout "
                f"is {wd.heartbeat_timeout}s; hangs are detected up to a "
                "full poll late",
                xml_path="resilience/watchdog",
            ))
        q = res.quarantine
        if q is not None and 0 < q.cooldown < q.window:
            out.append(make(
                "DY406",
                f"quarantine cooldown {q.cooldown}s is shorter than its "
                f"failure window {q.window}s; nodes re-enter rotation while "
                "their failures still count",
                xml_path="resilience/quarantine",
            ))
        net = res.network
        if net is not None and net.max_retransmits == 0:
            # Effective drop rate per link: the base profile or any override.
            lossy = net.drop_prob > 0 or any(
                lo.drop_prob is not None and lo.drop_prob > 0 for lo in net.links
            )
            if lossy:
                out.append(make(
                    "DY408",
                    "network drop-prob is nonzero but max-retransmits is 0 "
                    "(fire-and-forget); dropped Monitor envelopes are lost "
                    "for good and never retransmitted",
                    xml_path="resilience/network",
                ))
        if net is not None and res.watchdog is not None:
            timeout = res.watchdog.heartbeat_timeout
            for i, w in enumerate(net.partitions):
                if w.duration > timeout > 0:
                    out.append(make(
                        "DY409",
                        f"partition window of {w.duration}s outlasts the "
                        f"watchdog heartbeat timeout ({timeout}s); healthy "
                        "tasks behind the partition will be declared hung "
                        "and killed",
                        xml_path=f"resilience/network/partition[{i}]",
                    ))
    obs = spec.observability
    if obs is not None:
        for i, det in enumerate(obs.anomalies):
            if det.min_points > det.window:
                out.append(make(
                    "DY404",
                    f"anomaly detector for {det.metric!r} needs "
                    f"{det.min_points} points but its window only holds "
                    f"{det.window}; it can never fire",
                    xml_path=f"observability/anomaly[{i}]",
                    severity=Severity.WARNING,
                ))
    return out


# -- DY41x: multi-tenant campaign service ------------------------------------ #
def _check_tenants(spec: DyflowSpec) -> list[Diagnostic]:
    ten = spec.tenants
    if ten is None:
        return []
    out: list[Diagnostic] = []
    capacity = ten.capacity_cores
    if capacity > 0:
        for i, t in enumerate(ten.tenants):
            if t.quota_cores > capacity:
                out.append(make(
                    "DY410",
                    f"tenant {t.tenant_id!r} quota-cores {t.quota_cores} "
                    f"exceeds the shared machine's capacity of {capacity} "
                    f"cores ({ten.nodes} nodes x {ten.cores_per_node}); the "
                    "quota can never be filled and admission behaves as "
                    "uncapped",
                    xml_path=f"tenants/tenant[{i}]",
                ))
    ex = ten.executor
    if ex is not None and ex.kill_prob > 0 and ex.max_attempts <= 1:
        out.append(make(
            "DY411",
            f"executor injects worker kills (kill-prob {ex.kill_prob}) but "
            f"max-attempts is {ex.max_attempts}; every killed cell is "
            "immediately poisoned instead of retried",
            xml_path="tenants/executor",
        ))
    return out


# -- DY412: tenant-scoped SLOs must name declared tenants --------------------- #
def _check_fleet_slos(spec: DyflowSpec) -> list[Diagnostic]:
    obs = spec.observability
    if obs is None:
        return []
    known = (
        {t.tenant_id for t in spec.tenants.tenants}
        if spec.tenants is not None else set()
    )
    out: list[Diagnostic] = []
    for i, slo in enumerate(obs.slos):
        if slo.tenant and slo.tenant not in known:
            hint = (
                f"declared tenants: {', '.join(sorted(known))}"
                if known else "no <tenants> section declares any tenant"
            )
            out.append(make(
                "DY412",
                f"SLO on {slo.metric!r} ({slo.stat}) references unknown "
                f"tenant {slo.tenant!r}; the objective can never fire ({hint})",
                xml_path=f"observability/slo[{i}]",
            ))
    return out


# --------------------------------------------------------------------------- #
# entry point used by the CLI: lint raw XML text
# --------------------------------------------------------------------------- #
def lint_xml_text(
    text: str,
    machine=None,
    workflow=None,
    filename: str | None = None,
) -> list[Diagnostic]:
    """Parse (without validation) and verify one XML document.

    A document that fails to parse yields a single ``DY100`` error
    instead of raising, so the CLI can lint a whole corpus in one pass.
    """
    from repro.errors import XmlSpecError
    from repro.xmlspec.parser import parse_dyflow_xml

    try:
        spec = parse_dyflow_xml(text, validate=False)
    except XmlSpecError as err:
        return [make("DY100", str(err), file=filename, xml_path=None if filename else "dyflow")]
    diags = verify_spec(spec, machine=machine, workflow=workflow)
    if filename is not None:
        diags = [
            replace(
                d,
                location=type(d.location)(
                    xml_path=d.location.xml_path, file=filename, line=d.location.line
                ),
            )
            for d in diags
        ]
    return diags
