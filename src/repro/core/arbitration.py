"""Arbitration stage: Algorithm 1 of the paper.

Turns the Decision stage's suggested actions into a feasible, consistent
plan of low-level operations:

1. resolve conflicts among suggestions using policy priorities,
2. add dependent actions (tight dependents restart with their parent),
3. map high-level actions to stop/start primitives and compute the
   resources they need,
4. when free resources are insufficient, victimize the lowest-priority
   running task (strictly lower priority than the acquirer) — or park
   unsatisfiable starts in the waiting queue / discard opportunistic
   growth,
5. when resources free up, start waiting tasks in priority order,
6. order operations (releases before acquires) and emit the revised
   resource assignment.

The stage also implements the two time gates from §4.4: a *warmup*
window at experiment start and a *settle* window after every executed
plan, during which suggestions are discarded.
Every suggestion of a batch ends in exactly one :class:`Outcome`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster.allocation import ResourceSet
from repro.cluster.resource_manager import place_cores
from repro.core.actions import (
    ActionType, Outcome, Reason, SuggestedAction, actions_conflict, count_reason,
    render_outcome, tally,
)
from repro.core.lowlevel import PHASE_ACQUIRE, PHASE_RELEASE, ActionPlan, LowLevelOp
from repro.core.rules import ArbitrationRules
from repro.errors import AllocationError
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.util.ids import IdGenerator
from repro.wms.launcher import LauncherCore


@dataclass
class WaitingEntry:
    """A task parked until resources become available (T_waiting)."""

    task: str
    nprocs: int
    per_node_limit: int | None
    params: dict[str, Any] = field(default_factory=dict)
    user_script: str | None = None
    enqueued: float = 0.0
    reason: str = ""


class _FeasibilityCache:
    """Negative placement-feasibility memo across plan builds.

    A request shape ``(ncores, per_node_limit)`` that could not be placed
    against the *live* resource state stays infeasible until that state
    changes, i.e. until :meth:`ResourceManager.placement_epoch` moves.
    Within one epoch it answers repeat lookups — the acquire pass and the
    line-16 drain both try each waiting entry, and several entries may
    share one shape — without the per-node scan.  Only *pristine* shadows (no plan-local
    releases/takes yet) may consult or feed the cache; once a plan
    mutates its scratch free-set the shapes no longer describe the live
    machine.
    """

    def __init__(self) -> None:
        self._epoch: tuple | None = None
        self._infeasible: set[tuple[int, int | None]] = set()
        #: Memo effectiveness counters (``memo_stats``); they never
        #: influence placement, so they are not journaled.
        self.hits = 0
        self.misses = 0

    def sync(self, epoch: tuple) -> None:
        if epoch != self._epoch:
            self._epoch = epoch
            self._infeasible.clear()

    def known_infeasible(self, ncores: int, per_node_limit: int | None) -> bool:
        if (ncores, per_node_limit) in self._infeasible:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def note_infeasible(self, ncores: int, per_node_limit: int | None) -> None:
        self._infeasible.add((ncores, per_node_limit))


class _Shadow:
    """Scratch resource bookkeeping while a plan is being built.

    ``core_quota`` is the machine-wide tenancy cap (see
    ``repro.campaign``): the total cores this workflow may hold at
    once.  It is enforced inside :meth:`place`, so every acquire path —
    fresh starts, waiting-queue drains, dependent restarts, packed
    fallbacks — hits the same gate, and victimizing a same-workflow
    task frees quota exactly like it frees cores.
    """

    def __init__(
        self,
        launcher: LauncherCore,
        epoch: tuple,
        cache: _FeasibilityCache | None = None,
        core_quota: int | None = None,
    ) -> None:
        rm = self.rm = launcher.rm
        self.core_quota = core_quota
        self.nodes = rm.allocation.nodes
        self.free = rm.free()
        self.assigned: dict[str, ResourceSet] = {
            name: rm.assignment(name) for name in rm.owners()
        }
        # Quarantined nodes are excluded exactly like unhealthy ones:
        # Arbitration "ensures the exclusion of problematic resources".
        # Constant within one plan build (simulated time does not advance),
        # so read once, from the epoch the caller took.
        self.excluded = epoch[2]
        self.pristine = True
        self.cache = cache
        if cache is not None:
            cache.sync(epoch)

    def holds(self, task: str) -> bool:
        return task in self.assigned

    def release(self, task: str) -> ResourceSet:
        self.pristine = False
        rs = self.assigned.pop(task, ResourceSet.empty())
        self.free = self.free.union(rs.restrict_to(self.rm.healthy_node_ids()))
        return rs

    def place(self, ncores: int, per_node_limit: int | None) -> ResourceSet:
        if self.core_quota is not None:
            held = sum(rs.total_cores for rs in self.assigned.values())
            if held + ncores > self.core_quota:
                raise AllocationError(
                    f"cannot place {ncores} cores: workflow holds {held} of "
                    f"its {self.core_quota}-core tenancy quota"
                )
        cache = self.cache
        usable = cache is not None and self.pristine
        if usable and cache.known_infeasible(ncores, per_node_limit):
            raise AllocationError(
                f"cannot place {ncores} cores"
                f"{f' (limit {per_node_limit}/node)' if per_node_limit else ''}: "
                "known infeasible against current resources"
            )
        try:
            return place_cores(
                self.free, self.nodes, ncores, per_node_limit,
                exclude_nodes=self.excluded,
            )
        except AllocationError:
            if usable:
                cache.note_infeasible(ncores, per_node_limit)
            raise

    def take(self, task: str, rs: ResourceSet) -> None:
        self.pristine = False
        self.free = self.free.subtract(rs)
        self.assigned[task] = rs


class ArbitrationStage:
    """Builds action plans from suggestion batches (Algorithm 1)."""

    def __init__(
        self,
        launcher: LauncherCore,
        rules: ArbitrationRules,
        warmup: float = 120.0,
        settle: float = 120.0,
        allow_victims: bool = True,
        graceful_stops: bool = True,
        core_quota: int | None = None,
    ) -> None:
        self.launcher = launcher
        self.rules = rules
        self.warmup = warmup
        self.settle = settle
        self.allow_victims = allow_victims
        # Machine-wide tenancy policy (repro.campaign): cap on the total
        # cores this workflow may hold across its tasks, so two tenants'
        # arbiters can share one machine without either absorbing it.
        self.core_quota = core_quota
        # graceful_stops=False lets tasks be killed without finishing the
        # current timestep — the paper notes response times "significantly
        # reduce" this way, at the cost of losing the in-flight step.
        self.graceful_stops = graceful_stops
        self.waiting: dict[str, WaitingEntry] = {}
        self._feasibility = _FeasibilityCache()
        # ``(epoch, waiting entries)`` of the last tick that tried every
        # waiting entry against the live state and placed nothing.
        # Derived state, so not journaled: after a resume the first idle
        # tick builds one shadow and finds the same answer.
        self._idle_key: tuple | None = None
        #: The last batch's outcomes, one per suggestion; every outcome
        #: also goes to the launcher's run log.
        self.outcomes: list[Outcome] = []
        # (suggestion, reason, landed in the plan) ended during this call.
        self._ended: list[tuple[SuggestedAction, Reason, bool]] = []
        self._ids = IdGenerator()
        self._gate_until: float | None = None
        self._in_flight: ActionPlan | None = None
        # A plan has executed: a shut gate is the settle window, not the
        # warmup.  Journaled: the plans themselves are run output
        # (``launcher.output``), which a fresh process holds only from the
        # last snapshot on.
        self._executed = False
        self.tracer: Tracer = NULL_TRACER
        #: Bumped by every call that may change ``state_dict``.
        self.revision = 0

    # -- lifecycle --------------------------------------------------------------
    def begin(self, now: float) -> None:
        """Experiment started: open the warmup gate."""
        self.revision += 1
        self._gate_until = now + self.warmup

    def on_plan_executed(self, plan: ActionPlan, now: float) -> None:
        """Actuation finished: start the settle-down window."""
        self.revision += 1
        plan.execution_end = now
        self._in_flight = None
        self._executed = True
        self._gate_until = now + self.settle

    def memo_stats(self) -> dict[str, int]:
        """Placement-memo effectiveness (``perfbench`` reads it per tick)."""
        return {"hits": self._feasibility.hits, "misses": self._feasibility.misses}

    def gated(self, now: float) -> Reason | None:
        """The gate discarding suggestions at *now*, if one is shut.  Which
        one is derived, so it costs no journaled state."""
        if self._in_flight is not None:
            return Reason.GATED_IN_FLIGHT
        if self._gate_until is None or now >= self._gate_until:
            return None
        if self._executed:
            return Reason.GATED_SETTLE
        return Reason.GATED_WARMUP

    # -- the protocol --------------------------------------------------------------
    def arbitrate(self, suggestions: list[SuggestedAction], now: float) -> ActionPlan | None:
        """Run Algorithm 1 over one suggestion batch.

        Returns a plan for Actuation, or None when gated / nothing to do.
        """
        tracer = self.tracer
        if not tracer.enabled:
            plan = self._arbitrate(suggestions, now)
            return self._publish(plan, now) if self._ended else plan
        span = tracer.start_span("arbitration.arbitrate", "arbitration", suggestions=len(suggestions))
        plan = self._arbitrate(suggestions, now)
        if self._ended:
            self._publish(plan, now)
        metrics = tracer.metrics
        if plan is not None:
            metrics.counter("arbitration.plans").inc()
            if plan.victims:
                metrics.counter("arbitration.victims").inc(len(plan.victims))
        metrics.gauge("arbitration.waiting").set(len(self.waiting))
        tracer.end_span(span, plan=plan.plan_id if plan else None, ops=len(plan.ops) if plan else 0)
        return plan

    def _end(self, s: SuggestedAction, reason: Reason, plan: ActionPlan | None = None) -> None:
        """*s* ends in *reason*: its one outcome (logged by :meth:`_publish`)
        and its line in *plan*."""
        self._ended.append((s, reason, plan is not None))
        if plan is not None:
            line = render_outcome(s.policy_id, s.action.value, s.target, reason)
            (plan.accepted if reason is Reason.GRANTED else plan.discarded).append(line)

    def supersede(self, suggestions) -> None:
        """End a batch that newer ones superseded before it was arbitrated
        (a bounded hand-off queue shed it)."""
        self.revision += 1
        for s in suggestions:
            self._end(s, Reason.SUPERSEDED)
        self._publish(None, self.launcher.now())

    def _publish(self, plan: ActionPlan | None, now: float) -> ActionPlan | None:
        """Log the outcomes this call ended, each with the id of the *plan*
        it landed in, once the plan has its id (or was dropped)."""
        plan_id = plan.plan_id if plan is not None else None
        self.outcomes = [
            Outcome(s.policy_id, s.action, s.target, reason, now,
                    plan_id if landed else None, s.trigger_time)
            for s, reason, landed in self._ended
        ]
        self._ended = []
        for outcome in self.outcomes:
            tally(self.launcher.log, outcome, self.tracer)
        return plan

    def _arbitrate(self, suggestions: list[SuggestedAction], now: float) -> ActionPlan | None:
        self.outcomes = []
        if not suggestions and not self.waiting:
            return None  # nothing to gate, resolve or place
        if suggestions:
            self.revision += 1  # each one ends in an outcome, may edit the queue
        gate = self.gated(now)
        if gate is not None:
            for s in suggestions:
                self._end(s, gate)
            return None
        filtered = self._resolve_conflicts(suggestions)
        filtered = self._drop_noops(filtered)
        rm = self.launcher.rm
        # With no suggestion only the waiting queue could act, and only on
        # free cores (line 16).  Free cores are tested before the epoch is
        # taken: reading the epoch may release elapsed quarantines.
        if not filtered and (not self.waiting or rm.free_cores() == 0):
            return None
        self.revision += 1  # a retry is skipped, or a plan built
        epoch = rm.placement_epoch()
        if not filtered and self._retry_would_repeat(epoch):
            # Not retried because nothing it depends on changed — as
            # opposed to retried and still infeasible.  It answers no
            # suggestion, so it is counted, not logged: an idle tick adds
            # nothing to the run log.
            count_reason(Reason.WAITING_UNCHANGED, self.tracer)
            return None

        plan = ActionPlan(
            plan_id="",  # assigned only if the plan survives with ops
            workflow_id=self.rules.workflow_id,
            created=now,
            ops=[],
            trigger_time=min((s.trigger_time for s in filtered), default=now),
        )
        shadow = _Shadow(
            self.launcher, epoch, cache=self._feasibility, core_quota=self.core_quota
        )
        stop_targets: set[str] = set()   # tasks the plan stops (for good)
        start_targets: set[str] = set()  # tasks the plan (re)starts

        # Dependent actions (line 3): dependents of disturbed parents restart.
        dependents = self._dependent_restarts(filtered)

        # Releases first: STOP-type actions.  A STOP also purges any queued
        # START for the same task — conflict resolution (line 2) applies to
        # the waiting queue just as it does to fresh suggestions.
        for s in filtered:
            if s.action == ActionType.STOP:
                self.waiting.pop(s.target, None)
                self._plan_stop(plan, shadow, s.target, reason=s.policy_id, graceful=True)
                stop_targets.add(s.target)
                self._end(s, Reason.GRANTED, plan)
            elif s.action == ActionType.SWITCH and s.assess_task:
                if self.launcher.record(s.assess_task).is_active:
                    self._plan_stop(plan, shadow, s.assess_task, reason=s.policy_id, graceful=True)
                    stop_targets.add(s.assess_task)
                    # The stop half; the start half below is the outcome.
                    plan.accepted.append(render_outcome(s.policy_id, "SWITCH-STOP", s.assess_task))

        # In-place reconfigurations (§6 extension): no resource movement,
        # no dependent restarts — the whole point of the finer-grained op.
        reconfig_targets: set[str] = set()
        for s in filtered:
            if s.action != ActionType.RECONFIG:
                continue
            if s.target in stop_targets or s.target in reconfig_targets:
                self._end(s, Reason.CONFLICTS_WITH_PLAN, plan)
                continue
            plan.ops.append(
                LowLevelOp(
                    op="reconfig_task",
                    task=s.target,
                    phase=PHASE_ACQUIRE,
                    params=dict(s.params),
                    reason=s.policy_id,
                )
            )
            reconfig_targets.add(s.target)
            self._end(s, Reason.GRANTED, plan)

        # Acquiring / restarting actions plus waiting-queue entries, in one
        # pass ordered by task priority; at equal priority a waiting task
        # precedes a fresh suggestion (it asked first).  Waiting entries
        # never victimize — they only use resources that are free (line 16).
        acquires: list[tuple[tuple, SuggestedAction | WaitingEntry]] = []
        for s in filtered:
            if s.action in (ActionType.START, ActionType.RESTART, ActionType.ADDCPU,
                            ActionType.RMCPU, ActionType.SWITCH):
                acquires.append(((self.rules.task_priority(s.target), 1, 0.0, s.target), s))
        for entry in self.waiting.values():
            # Waiting entries drain in enqueue order (queue seniority).
            acquires.append(((self.rules.task_priority(entry.task), 0, entry.enqueued, entry.task), entry))
        acquires.sort(key=lambda pair: pair[0])
        for _key, item in acquires:
            if isinstance(item, WaitingEntry):
                self._try_start_waiting(plan, shadow, item, stop_targets, start_targets)
                continue
            s = item
            if s.target in stop_targets or s.target in start_targets:
                self._end(s, Reason.CONFLICTS_WITH_PLAN, plan)
                continue
            if s.target in dependents and s.action in (ActionType.ADDCPU, ActionType.RMCPU):
                # The dependency-driven restart supersedes resizing (§4.4:
                # Rendering is restarted, not grown, when Isosurface grows).
                self._end(s, Reason.DEPENDENCY_RESTART, plan)
                continue
            reason = self._plan_acquire(plan, shadow, s, stop_targets, start_targets, now)
            if reason is Reason.GRANTED:
                start_targets.add(s.target)
            self._end(s, reason, plan)

        # Dependent restarts for every disturbed parent now in the plan.
        for dep in sorted(dependents, key=lambda d: (self.rules.task_priority(d), d)):
            parent_disturbed = dependents[dep] & (stop_targets | start_targets)
            if not parent_disturbed:
                continue
            if dep in stop_targets or dep in start_targets:
                continue
            if not self.launcher.record(dep).is_running:
                continue
            current = shadow.assigned.get(dep, ResourceSet.empty())
            nprocs = current.total_cores
            self._plan_stop(plan, shadow, dep, reason=Reason.DEPENDENCY, graceful=True)
            try:
                rs = shadow.place(nprocs, None)
            except AllocationError:
                self._enqueue_waiting(dep, nprocs, None, {}, None, now, reason=Reason.DEPENDENCY)
                continue
            shadow.take(dep, rs)
            self._plan_start(plan, dep, rs, None, {}, reason=Reason.DEPENDENCY)
            start_targets.add(dep)

        # Line 16 second chance: this plan's stops may have freed cores for
        # tasks still waiting (e.g. a SWITCH releasing its assessed task).
        self._drain_waiting(plan, shadow, start_targets, stop_targets, now)

        if not plan.ops:
            if shadow.pristine:
                # Every waiting entry was just tried against the live state
                # and none fits: until the epoch or the queue changes, a
                # waiting-only retry would fail the same way.
                self._idle_key = (epoch, tuple(self.waiting.values()))
            return None
        plan.plan_id = self._ids.next("plan")
        plan.assign_op_keys()
        plan.reassignment = dict(shadow.assigned)
        self._in_flight = plan
        self.launcher.output.plans.append(plan)
        return plan

    # -- stage 1: conflict resolution -------------------------------------------------
    def _resolve_conflicts(self, suggestions: list[SuggestedAction]) -> list[SuggestedAction]:
        """Per-target conflict resolution by policy priority (line 2)."""
        by_target: dict[str, list[SuggestedAction]] = {}
        seen: set[tuple] = set()
        for s in suggestions:
            key = (s.policy_id, s.action, s.target)
            if key in seen:
                self._end(s, Reason.SUPERSEDED)
                continue
            seen.add(key)
            by_target.setdefault(s.target, []).append(s)
        out: list[SuggestedAction] = []
        for target, group in by_target.items():
            group.sort(key=lambda s: (self.rules.policy_priority(s.policy_id), s.policy_id))
            kept: list[SuggestedAction] = []
            for s in group:
                if any(actions_conflict(s.action, k.action) for k in kept):
                    self._end(s, Reason.SUPERSEDED)  # lower priority, conflicting
                    continue
                kept.append(s)
            out.extend(kept)
        return out

    # -- stage 2: drop actions that no longer apply ---------------------------------------
    def _drop_noops(self, suggestions: list[SuggestedAction]) -> list[SuggestedAction]:
        out = []
        for s in suggestions:
            rec = self.launcher.record(s.target)
            if s.action == ActionType.START and (rec.is_active or s.target in self.waiting):
                if s.target in self.waiting:
                    # Refresh the waiting entry's parameters.
                    self.waiting[s.target].params.update(s.params)
            elif s.action == ActionType.STOP and not rec.is_active:
                # Nothing to stop — but a STOP still cancels a queued START
                # for the same task (conflict resolution reaches T_waiting).
                self.waiting.pop(s.target, None)
            elif (
                s.action not in (ActionType.ADDCPU, ActionType.RMCPU, ActionType.RECONFIG)
                or rec.is_running
            ):
                out.append(s)
                continue
            self._end(s, Reason.NO_OP)
        return out

    # -- dependency analysis ------------------------------------------------------------
    def _dependent_restarts(self, filtered: list[SuggestedAction]) -> dict[str, set[str]]:
        """dependent task -> set of disturbed parents (from this batch)."""
        out: dict[str, set[str]] = {}
        for s in filtered:
            disturbed = None
            if s.action in (ActionType.STOP, ActionType.RESTART, ActionType.ADDCPU, ActionType.RMCPU):
                disturbed = s.target
            elif s.action == ActionType.SWITCH and s.assess_task:
                disturbed = s.assess_task
            if disturbed is None:
                continue
            for dep in self.rules.transitive_tight_dependents(disturbed):
                out.setdefault(dep, set()).add(disturbed)
        return out

    # -- op planning ----------------------------------------------------------------------
    def _plan_stop(self, plan: ActionPlan, shadow: _Shadow, task: str, reason: str, graceful: bool) -> None:
        if self.launcher.record(task).is_active:
            plan.ops.append(
                LowLevelOp(
                    op="stop_task",
                    task=task,
                    phase=PHASE_RELEASE,
                    graceful=graceful and self.graceful_stops,
                    reason=reason,
                )
            )
        shadow.release(task)

    def _plan_start(
        self,
        plan: ActionPlan,
        task: str,
        rs: ResourceSet,
        user_script: str | None,
        params: dict[str, Any],
        reason: str,
    ) -> None:
        plan.ops.append(
            LowLevelOp(
                op="start_task",
                task=task,
                phase=PHASE_ACQUIRE,
                resources=rs,
                user_script=user_script,
                params=dict(params),
                reason=reason,
            )
        )

    def _plan_acquire(
        self,
        plan: ActionPlan,
        shadow: _Shadow,
        s: SuggestedAction,
        stop_targets: set[str],
        start_targets: set[str],
        now: float,
    ) -> Reason:
        """Plan one acquiring action, maybe with victims (lines 6–15); returns how *s* ends."""
        spec = self.launcher.record(s.target).spec
        running = self.launcher.record(s.target).is_running
        current = shadow.assigned.get(s.target, ResourceSet.empty())
        adjust = int(s.params.get("adjust-by", 1))
        user_script = s.params.get("restart-script") or s.params.get("start-script")
        per_node = spec.procs_per_node

        if s.action == ActionType.ADDCPU:
            nprocs = current.total_cores + adjust
            per_node = None  # growth relaxes the initial placement constraint
        elif s.action == ActionType.RMCPU:
            nprocs = max(1, current.total_cores - adjust)
            per_node = None
        elif s.action == ActionType.RESTART:
            nprocs = current.total_cores if running else int(s.params.get("nprocs", spec.nprocs))
        else:  # START / SWITCH(start half)
            nprocs = int(s.params.get("nprocs", spec.nprocs))

        # Free the target's own cores first (restart semantics).
        if running:
            released = shadow.release(s.target)
        else:
            released = ResourceSet.empty()

        target_pri = self.rules.task_priority(s.target)
        while True:
            try:
                rs = shadow.place(nprocs, per_node)
                break
            except AllocationError:
                victim = self._pick_victim(shadow, target_pri, stop_targets, start_targets, s.target)
                if victim is None and per_node is not None:
                    # Paper's protocol estimates resources; if the strict
                    # per-node layout cannot be met, retry packed.
                    try:
                        rs = shadow.place(nprocs, None)
                        break
                    except AllocationError:
                        pass
                if victim is None:
                    # No victim available: park starts, discard growth (line 13).
                    if running and released:
                        # Put the target's own cores back; nothing happens.
                        shadow.take(s.target, released)
                    if s.action in (ActionType.START, ActionType.RESTART, ActionType.SWITCH) and not running:
                        self._enqueue_waiting(
                            s.target, nprocs, per_node, s.params, user_script, now,
                            reason=s.policy_id,
                        )
                        return Reason.PARKED
                    return Reason.DISCARDED_GROWTH
                self._victimize(plan, shadow, victim, stop_targets, now)

        if running:
            self._plan_stop(plan, shadow, s.target, reason=s.policy_id, graceful=True)
        shadow.take(s.target, rs)
        self._plan_start(plan, s.target, rs, user_script, s.params, reason=s.policy_id)
        return Reason.GRANTED

    def _pick_victim(
        self,
        shadow: _Shadow,
        target_priority: int,
        stop_targets: set[str],
        start_targets: set[str],
        acquirer: str,
    ) -> str | None:
        """Lowest-priority running task strictly below the acquirer (line 7)."""
        if not self.allow_victims:
            return None
        candidates = [
            name
            for name in shadow.assigned
            if name != acquirer
            and name not in stop_targets
            and name not in start_targets
            and self.launcher.record(name).is_running
            and self.rules.task_priority(name) > target_priority
        ]
        if not candidates:
            return None
        candidates.sort(key=lambda n: (-self.rules.task_priority(n), n))
        return candidates[0]

    def _victimize(
        self, plan: ActionPlan, shadow: _Shadow, victim: str, stop_targets: set[str], now: float
    ) -> None:
        """Stop *victim* (and its tight dependents), park them in T_waiting."""
        group = [victim] + [
            d for d in self.rules.transitive_tight_dependents(victim)
            if self.launcher.record(d).is_running and d not in stop_targets
        ]
        for name in group:
            held = shadow.assigned.get(name, ResourceSet.empty()).total_cores
            self._plan_stop(plan, shadow, name, reason=Reason.VICTIM, graceful=True)
            stop_targets.add(name)
            plan.victims.append(name)
            spec = self.launcher.record(name).spec
            self._enqueue_waiting(
                name, held or spec.nprocs, spec.procs_per_node, {}, None, now,
                reason=Reason.VICTIM,
            )

    # -- waiting queue ---------------------------------------------------------------------
    def _enqueue_waiting(
        self,
        task: str,
        nprocs: int,
        per_node_limit: int | None,
        params: dict[str, Any],
        user_script: str | None,
        now: float,
        reason: str,
    ) -> None:
        if task not in self.waiting:
            self.waiting[task] = WaitingEntry(
                task=task,
                nprocs=nprocs,
                per_node_limit=per_node_limit,
                params=dict(params),
                user_script=user_script,
                enqueued=now,
                reason=reason,
            )

    def _retry_would_repeat(self, epoch: tuple) -> bool:
        """Would retrying the waiting queue fail exactly as it last did?

        An entry's placement depends only on the epoch and on its own
        shape; entries are compared as objects, so a task re-queued with
        another shape misses.  The one other effect of a retry — dropping
        an entry whose task another path (a launcher retry) has started —
        is not in the key, so such an entry forces the retry.
        """
        if (epoch, tuple(self.waiting.values())) != self._idle_key:
            return False
        record = self.launcher.record
        return not any(record(task).is_active for task in self.waiting)

    def _try_start_waiting(
        self,
        plan: ActionPlan,
        shadow: _Shadow,
        entry: WaitingEntry,
        stop_targets: set[str],
        start_targets: set[str],
    ) -> bool:
        """Start one waiting task if free resources allow (no victims)."""
        if entry.task in start_targets or entry.task in stop_targets:
            return False
        if self.launcher.record(entry.task).is_active:
            self.waiting.pop(entry.task, None)
            return False
        try:
            rs = shadow.place(entry.nprocs, entry.per_node_limit)
        except AllocationError:
            if entry.per_node_limit is not None:
                try:
                    rs = shadow.place(entry.nprocs, None)
                except AllocationError:
                    return False
            else:
                return False
        shadow.take(entry.task, rs)
        user_script = (
            entry.user_script
            or entry.params.get("restart-script")
            or entry.params.get("start-script")
        )
        self._plan_start(
            plan, entry.task, rs, user_script, entry.params, reason=Reason.WAITING_QUEUE
        )
        start_targets.add(entry.task)
        self.waiting.pop(entry.task, None)
        return True

    def _drain_waiting(
        self,
        plan: ActionPlan,
        shadow: _Shadow,
        start_targets: set[str],
        stop_targets: set[str],
        now: float,
    ) -> None:
        """Start waiting tasks, highest priority first, while cores remain."""
        entries = sorted(
            self.waiting.values(), key=lambda e: (self.rules.task_priority(e.task), e.enqueued)
        )
        for entry in entries:
            self._try_start_waiting(plan, shadow, entry, stop_targets, start_targets)

    # -- crash recovery ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Gates, waiting queue, and id counters; plans travel separately.

        The plans are the launcher's run output, which outlives the
        controller; a resume upserts the journal's ``plan`` / ``plan-done``
        records into it.  ``in_flight`` is stored by plan id and resolved
        there by :meth:`load_state_dict`.
        """
        return {
            "waiting": {
                task: {
                    "task": e.task,
                    "nprocs": e.nprocs,
                    "per_node_limit": e.per_node_limit,
                    "params": dict(e.params),
                    "user_script": e.user_script,
                    "enqueued": e.enqueued,
                    "reason": str(e.reason),
                }
                for task, e in self.waiting.items()
            },
            "gate_until": self._gate_until,
            "in_flight": self._in_flight.plan_id if self._in_flight else None,
            "executed": self._executed,
            "ids": self._ids.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.revision += 1
        self.waiting = {
            task: WaitingEntry(
                task=e["task"],
                nprocs=int(e["nprocs"]),
                per_node_limit=e["per_node_limit"],
                params=dict(e.get("params", {})),
                user_script=e.get("user_script"),
                enqueued=float(e.get("enqueued", 0.0)),
                reason=e.get("reason", ""),
            )
            for task, e in state.get("waiting", {}).items()
        }
        self._idle_key = None
        gate = state.get("gate_until")
        self._gate_until = float(gate) if gate is not None else None
        self._ids.load_state_dict(state.get("ids", {}))
        plans = self.launcher.output.plans
        if "executed" in state:
            self._executed = bool(state["executed"])
        else:  # an older journal: derived from the plans this process holds
            self._executed = any(p.execution_end is not None for p in plans)
        in_flight_id = state.get("in_flight")
        self._in_flight = None
        if in_flight_id is not None:
            for plan in reversed(plans):
                if plan.plan_id == in_flight_id:
                    self._in_flight = plan
                    break
            else:
                from repro.errors import JournalError

                raise JournalError(
                    f"in-flight plan {in_flight_id!r} missing from the run's plans"
                )
