"""Flow-sensitive spec analysis by abstract interpretation.

Where :mod:`repro.lint.speclint` checks each construct in isolation,
this pass symbolically *executes* the spec against the machine model:
it walks the resource timeline (initial placement, then every resource
adjustment the policies can grant) and the policy/threshold lattice
(which conditions imply which, and how arbitration orders the
winners).  That upgrades three point checks into flow-sensitive ones:

* **DY205** — the initial placement fits the machine, but some sequence
  of policy-granted ``ADDCPU`` adjustments drives total demand past
  capacity.  DY201 only sees tick zero; this sees the reachable future.
* **DY304** — a policy's firing interval is contained in a conflicting
  policy's interval and the arbitration rule ranks the wider policy
  strictly higher, so the narrow policy's action is deferred every
  single time: the policy is *reachable* as a condition but
  *unreachable* as an effect.  DY301 covers same-action shadowing;
  this covers conflicting-action domination through the priority order.
* **DY413** — every tenant quota individually fits the shared machine
  (so DY410 is silent), but the quotas are jointly unsatisfiable: no
  allocation lets all tenants hold their quota at once, so fair-share
  admission must starve someone below contract.

Every finding carries a **witness**: the ordered
:class:`~repro.lint.diagnostics.WitnessEvent` sequence of the abstract
execution that reaches the defect, rendered in reports and exported in
JSON/SARIF so the reader sees *how*, not just *that*.

The pass is pure static analysis — no RNG stream, no clock — so
enabling it (it runs inside :func:`repro.lint.speclint.verify_spec`,
and therefore inside runtime preflight) cannot perturb a scenario
fingerprint.
"""

from __future__ import annotations

import math

from repro.core.actions import ActionType, actions_conflict
from repro.lint.diagnostics import Diagnostic, WitnessEvent, make
from repro.lint.speclint import (
    _policy_path,
    _workflow_view,
    fire_interval,
    same_stream_pairs,
)
from repro.xmlspec.model import DyflowSpec

#: Cap on emitted witness steps so a pathological spec cannot bloat
#: reports; the tail is elided with a summary event.
MAX_WITNESS_STEPS = 32


def analyze_dataflow(
    spec: DyflowSpec,
    machine=None,
    workflow=None,
) -> list[Diagnostic]:
    """Run the abstract-interpretation pass; returns diagnostics.

    *machine* (a :class:`~repro.cluster.machine.Machine`) enables the
    DY205 resource-timeline analysis; *workflow* supplies the task
    inventory it places.  DY304 and DY413 need only the document.
    The result is unsorted — callers merge it into their own
    deterministic ordering.
    """
    task_specs, _ = _workflow_view(workflow)
    out: list[Diagnostic] = []
    out += _check_adjustment_timeline(spec, machine, task_specs)
    out += _check_priority_domination(spec)
    out += _check_joint_quotas(spec)
    return out


# --------------------------------------------------------------------------- #
# DY205: the resource timeline after adjustments
# --------------------------------------------------------------------------- #
def _check_adjustment_timeline(
    spec: DyflowSpec, machine, task_specs: dict
) -> list[Diagnostic]:
    if machine is None or not task_specs:
        return []
    total = machine.total_cores
    running = {
        name: t.nprocs for name, t in task_specs.items() if t.autostart
    }
    initial = sum(running.values())
    if initial > total:
        return []  # already a DY201 error at tick zero

    # One abstract grant per (application, target): each ADDCPU the
    # Decision stage can suggest is granted once, in deterministic
    # order.  Repeated grants only make things worse, so a single
    # round is the minimal witness.
    grants: list[tuple[str, str, int]] = []
    for app in spec.applications:
        policy = spec.policies.get(app.policy_id)
        if policy is None or policy.action is not ActionType.ADDCPU:
            continue
        params = dict(policy.default_params)
        params.update(app.action_params)
        adjust = params.get("adjust-by", 1)
        if not isinstance(adjust, (int, float)) or adjust <= 0:
            continue  # DY203 territory
        if adjust > total:
            continue  # DY203 flags the single grant already
        for target in app.act_on_tasks:
            if target in running:
                grants.append((app.policy_id, target, int(adjust)))
    if not grants:
        return []
    grants.sort()

    demand = initial
    events = [WitnessEvent(
        0, "initial placement",
        f"{initial} of {total} cores on {machine.name!r}",
    )]
    crossed = False
    for pid, target, adjust in grants:
        demand += adjust
        step = len(events)
        if step < MAX_WITNESS_STEPS:
            events.append(WitnessEvent(
                step, "ADDCPU granted",
                f"policy {pid!r} on task {target!r}: +{adjust} -> {demand}",
            ))
        if demand > total:
            crossed = True
            break
    if not crossed:
        return []
    events.append(WitnessEvent(
        len(events), "oversubscribed", f"{demand} > {total} cores",
    ))
    return [make(
        "DY205",
        f"initial placement uses {initial} of {total} cores, but the "
        f"policies' ADDCPU adjustments can grow demand to {demand} — the "
        "adjustment sequence oversubscribes the machine and late grants "
        "will be rejected at arbitration time",
        xml_path="dyflow",
        witness=tuple(events),
        data=(
            ("initial_cores", str(initial)),
            ("capacity_cores", str(total)),
            ("peak_cores", str(demand)),
        ),
    )]


# --------------------------------------------------------------------------- #
# DY304: priority domination across the threshold lattice
# --------------------------------------------------------------------------- #
def _representative(interval) -> float:
    """A concrete metric value inside the interval, for the witness."""
    lo, hi = interval.lo, interval.hi
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(hi):
        return lo + 1.0
    if math.isinf(lo):
        return hi - 1.0
    return (lo + hi) / 2.0


def _check_priority_domination(spec: DyflowSpec) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for app_a, pol_a, app_b, pol_b in same_stream_pairs(spec):
        if pol_a.policy_id == pol_b.policy_id:
            continue
        if not (set(app_a.act_on_tasks) & set(app_b.act_on_tasks)):
            continue
        if not actions_conflict(pol_a.action, pol_b.action):
            continue
        # Instantaneous evaluation only: a history window decouples
        # the evaluated value from the raw stream, so containment of
        # the raw intervals proves nothing.
        if pol_a.history_window > 1 or pol_b.history_window > 1:
            continue
        ia = fire_interval(pol_a.eval_op, pol_a.threshold)
        ib = fire_interval(pol_b.eval_op, pol_b.threshold)
        if ia is None or ib is None:
            continue
        if ia.subsumes(ib):
            outer, inner, iv = (app_a, pol_a), (app_b, pol_b), ib
        elif ib.subsumes(ia):
            outer, inner, iv = (app_b, pol_b), (app_a, pol_a), ia
        else:
            continue
        diag = _domination_diag(spec, outer, inner, iv)
        if diag is not None:
            out.append(diag)
    return out


def _domination_diag(spec, outer, inner, inner_iv) -> Diagnostic | None:
    app_out, pol_out = outer
    app_in, pol_in = inner
    if inner_iv.is_empty():
        return None  # DY303 covers unsatisfiable conditions
    # The wider policy must evaluate at least as often, else the narrow
    # one can fire in a Decision batch the wider sits out.
    if pol_out.frequency > pol_in.frequency:
        return None
    rule = spec.rules.get(app_in.workflow_id)
    if rule is None:
        return None
    pri_out = rule.policy_priorities.get(pol_out.policy_id)
    pri_in = rule.policy_priorities.get(pol_in.policy_id)
    if pri_out is None or pri_in is None or pri_out >= pri_in:
        return None  # unranked or non-dominating: DY302's concern
    value = _representative(inner_iv)
    shared = sorted(set(app_out.act_on_tasks) & set(app_in.act_on_tasks))
    events = (
        WitnessEvent(
            0, "metric sample",
            f"sensor {pol_in.sensor_id!r} delivers value {value:g}",
        ),
        WitnessEvent(
            1, "both policies fire",
            f"{pol_in.policy_id!r} ({pol_in.eval_op.upper()} "
            f"{pol_in.threshold:g}) and {pol_out.policy_id!r} "
            f"({pol_out.eval_op.upper()} {pol_out.threshold:g}) — the "
            "wider interval contains the narrow one",
        ),
        WitnessEvent(
            2, "arbitration orders by priority",
            f"{pol_out.policy_id!r} (priority {pri_out}) ahead of "
            f"{pol_in.policy_id!r} (priority {pri_in})",
        ),
        WitnessEvent(
            3, "conflicting action deferred",
            f"{pol_out.action.value} wins on {shared}; "
            f"{pol_in.action.value} from {pol_in.policy_id!r} is dropped",
        ),
        WitnessEvent(
            4, "generalizes",
            f"every value firing {pol_in.policy_id!r} also fires "
            f"{pol_out.policy_id!r}, so the defeat repeats",
        ),
    )
    return make(
        "DY304",
        f"policy {pol_in.policy_id!r} ({pol_in.eval_op.upper()} "
        f"{pol_in.threshold:g}, {pol_in.action.value}) can never take "
        f"effect: whenever it fires, {pol_out.policy_id!r} "
        f"({pol_out.eval_op.upper()} {pol_out.threshold:g}, "
        f"{pol_out.action.value}) fires too, their actions conflict, and "
        f"the rule ranks {pol_out.policy_id!r} strictly higher",
        xml_path=_policy_path(pol_in.policy_id),
        witness=events,
        data=(
            ("policy_id", pol_in.policy_id),
            ("dominating_policy_id", pol_out.policy_id),
        ),
    )


# --------------------------------------------------------------------------- #
# DY413: joint tenant-quota satisfiability
# --------------------------------------------------------------------------- #
def _check_joint_quotas(spec: DyflowSpec) -> list[Diagnostic]:
    ten = spec.tenants
    if ten is None:
        return []
    capacity = ten.capacity_cores
    if capacity <= 0:
        return []
    capped = [
        t for t in ten.tenants
        if 0 < t.quota_cores <= capacity  # > capacity is DY410
    ]
    if len(capped) < 2:
        return []
    joint = sum(t.quota_cores for t in capped)
    if joint <= capacity:
        return []
    events = [WitnessEvent(
        0, "shared machine",
        f"capacity {capacity} cores ({ten.nodes} nodes x "
        f"{ten.cores_per_node})",
    )]
    demand = 0
    for t in capped:
        demand += t.quota_cores
        step = len(events)
        if step < MAX_WITNESS_STEPS:
            events.append(WitnessEvent(
                step, "tenant saturates quota",
                f"{t.tenant_id!r}: +{t.quota_cores} -> {demand}",
            ))
        if demand > capacity:
            break
    events.append(WitnessEvent(
        len(events), "joint demand exceeds capacity",
        f"{joint} quota cores > {capacity}; fair-share admission must "
        "hold at least one tenant below its contracted quota",
    ))
    return [make(
        "DY413",
        f"tenant quotas sum to {joint} cores but the shared machine has "
        f"{capacity}; each quota fits alone, yet they are jointly "
        "unsatisfiable — under fair-share admission some tenant can "
        "never reach its contracted quota while the others hold theirs",
        xml_path="tenants",
        witness=tuple(events),
        data=(
            ("joint_quota_cores", str(joint)),
            ("capacity_cores", str(capacity)),
        ),
    )]
