"""Actuation stage: execute plans through the WMS plugin (paper §2.4).

Low-level operations "serve as a plugin to any static service that
interacts directly with the cluster resource manager and launches
workflow tasks" — the simulated Savanna launcher or the wall-clock live
one, reached only through :class:`~repro.wms.launcher.LauncherCore`.
Execution is sequential in plan order (releases before acquires), which
is also why graceful terminations dominate measured response times.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.resource_manager import place_cores
from repro.core.lowlevel import ActionPlan, DegradationReport, LowLevelOp
from repro.errors import ActuationError, AllocationError, LaunchError
from repro.journal.ledger import AppliedOpsLedger
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.wms.launcher import LauncherCore


class ActuationStage:
    """Executes action plans against the launcher plugin.

    When a :class:`~repro.journal.Journal` is attached, every op is
    bracketed by ``op-issued`` / ``op-completed`` records keyed on the
    op's idempotency key, so a crash-resumed orchestrator can finish an
    interrupted plan without double-applying anything (see
    :meth:`resume_plan`).  ``abort_requested`` models the orchestrator
    process dying between ops: the generator stops at the next op
    boundary without running ``on_done``.
    """

    def __init__(self, launcher: LauncherCore) -> None:
        self.launcher = launcher
        self.tracer: Tracer = NULL_TRACER
        self.journal = None  # Journal | None, attached by the orchestrator
        self.abort_requested = False

    # -- journal bracket ---------------------------------------------------------
    def _journal_issue(self, plan: ActionPlan, op: LowLevelOp) -> None:
        if self.journal is None:
            return
        payload = {"plan": plan.plan_id, "op_key": op.op_key, "op": op.op, "task": op.task}
        if op.op == "start_task":
            payload["incarnation_before"] = self.launcher.record(op.task).incarnations
        self.journal.append("op-issued", **payload)

    def _journal_complete(
        self, plan: ActionPlan, op: LowLevelOp, failed: bool, reconciled: bool = False
    ) -> None:
        if self.journal is None:
            return
        payload = {"plan": plan.plan_id, "op_key": op.op_key, "failed": failed}
        if reconciled:
            payload["reconciled"] = True
        self.journal.append("op-completed", **payload)

    def execute(self, plan: ActionPlan, on_done: Callable[[ActionPlan], None] | None = None):
        """Generator: run every op of *plan* in order; drive via a process.

        Individual op failures are recorded and skipped — a plan must
        degrade, not deadlock, when the cluster state drifted between
        planning and execution.  Every failed op leaves a ``failure``
        trace point; after the sweep, compensating releases unwind any
        cores a failed acquire left booked, and a
        :class:`~repro.core.lowlevel.DegradationReport` is attached to
        the plan.  Calls ``on_done(plan)`` at the end.
        """
        return (yield from self._run_plan(plan, AppliedOpsLedger(), on_done))

    def resume_plan(self, plan: ActionPlan, ledger, on_done: Callable[[ActionPlan], None] | None = None):
        """Generator: finish a plan interrupted by an orchestrator crash.

        *ledger* is an :class:`~repro.journal.AppliedOpsLedger` built from
        the journal's ``op-issued`` / ``op-completed`` records.  Each op is
        applied **at most once**:

        * ``completed`` ops are skipped outright;
        * an issued ``start_task`` is probed against the launcher's
          incarnation counter — if it advanced past the journaled
          ``incarnation_before`` the launch took effect and is skipped;
        * an issued ``stop_task`` whose target is already inactive is
          skipped; an active target is re-signalled, which is safe because
          stopping is effect-idempotent (a second TERM/KILL to a stopping
          task changes nothing);
        * ``reconfig_task`` is re-applied — parameter delivery overwrites
          the same keys, so replay converges to the same task state.

        Skips leave ``category="journal"`` trace points (excluded from
        scenario fingerprints) so the exactly-once property is auditable.
        Everything else is :meth:`execute`'s: the same loop runs both, so a
        resumed plan honours ``abort_requested`` and records its spans and
        response-time samples (from the resume on, for the ops it ran).
        """
        return (yield from self._run_plan(plan, ledger, on_done))

    def _effect_landed(self, op: LowLevelOp, ledger) -> bool:
        """Did an op that was issued but never completed take effect?"""
        rec = self.launcher.record(op.task)
        if op.op == "start_task":
            before = (ledger.issued_record(op.op_key) or {}).get("incarnation_before")
            return before is not None and rec.incarnations > int(before)
        if op.op == "stop_task":
            return not rec.is_active
        return False

    def _run_plan(self, plan: ActionPlan, ledger, on_done: Callable[[ActionPlan], None] | None):
        """The one op loop; for a fresh plan every op is ``unseen`` in *ledger*."""
        tracer = self.tracer
        launcher = self.launcher
        if plan.execution_start is None:
            plan.execution_start = launcher.now()
        plan_span = (
            tracer.start_span(
                "actuation.plan", "actuation", parent=None,
                plan=plan.plan_id, ops=len(plan.ops),
            )
            if tracer.enabled
            else None
        )
        plan_failures: list[tuple[LowLevelOp, str]] = []
        for op in plan.ordered_ops():
            if self.abort_requested:
                return plan  # orchestrator died between ops; resume_plan finishes
            status = ledger.status(op.op_key)
            if status == "completed":
                continue
            if status == "issued" and self._effect_landed(op, ledger):
                self._journal_complete(plan, op, failed=False, reconciled=True)
                launcher.log.point(
                    launcher.now(),
                    f"op-skipped:{op.task}",
                    category="journal",
                    plan=plan.plan_id,
                    op=op.describe(),
                )
                continue
            if status == "unseen":
                self._journal_issue(plan, op)
            if self.abort_requested:
                return plan  # died after issuing but before applying
            op.exec_start = launcher.now()
            failed = False
            try:
                yield from self._run_op(op)
            except (ActuationError, AllocationError, LaunchError) as err:
                failed = True
                plan_failures.append((op, str(err)))
                launcher.log.point(
                    launcher.now(),
                    f"op-failed:{op.task}",
                    category="failure",
                    plan=plan.plan_id,
                    op=op.describe(),
                    error=str(err),
                )
            finally:
                op.exec_end = launcher.now()
            self._journal_complete(plan, op, failed=failed)
            if plan_span is not None:
                tracer.add_span(
                    f"op.{op.op}", "actuation",
                    start=op.exec_start, end=op.exec_end, parent=plan_span,
                    task=op.task, reason=op.reason,
                )
        if plan_failures:
            self._compensate(plan, plan_failures)
            if tracer.enabled:
                tracer.metrics.counter("actuation.degraded_plans").inc()
                tracer.metrics.counter("actuation.failed_ops").inc(len(plan_failures))
        plan.execution_end = launcher.now()
        if plan_span is not None:
            tracer.end_span(plan_span, failed_ops=len(plan_failures))
            metrics = tracer.metrics
            # Per-stage response-time breakdown (paper §4.6): queueing in
            # Arbitration's handoff, then the execution itself (dominated
            # by graceful stops), then the full event-to-response time.
            metrics.histogram("stage.arbitration.latency").observe(
                max(0.0, plan.execution_start - plan.created)
            )
            metrics.histogram("stage.actuation.latency").observe(
                plan.execution_end - plan.execution_start
            )
            metrics.histogram("plan.response").observe(
                plan.execution_end - plan.created
            )
        if on_done is not None:
            on_done(plan)
        return plan

    def _compensate(self, plan: ActionPlan, failures: list[tuple[LowLevelOp, str]]) -> None:
        """Unwind failed acquires and attach the degradation report."""
        compensations: list[str] = []
        for op, _err in failures:
            if op.op != "start_task":
                continue
            if self.launcher.record(op.task).is_active:
                continue  # the task came up after all; nothing to unwind
            released = self.launcher.rm.release_if_held(op.task)
            if released:
                compensations.append(
                    f"released {released.total_cores} cores held for {op.task}"
                )
        plan.degradation = DegradationReport(
            plan_id=plan.plan_id,
            time=self.launcher.now(),
            failed_ops=[f"{op.describe()}: {err}" for op, err in failures],
            compensations=compensations,
        )
        self.launcher.log.point(
            self.launcher.now(),
            f"plan-degraded:{plan.plan_id}",
            category="failure",
            failed=len(failures),
            compensations=len(compensations),
        )

    def _run_op(self, op: LowLevelOp):
        launcher = self.launcher
        if op.op == "stop_task":
            yield from launcher.stop_task(op.task, graceful=op.graceful)
            return
        if op.op == "reconfig_task":
            delivered = yield from launcher.reconfig_task(op.task, op.params)
            if not delivered:
                raise ActuationError(f"reconfig target {op.task!r} not running")
            return
        if op.op == "start_task":
            if op.resources is None or op.resources.total_cores == 0:
                raise ActuationError(f"start op for {op.task!r} has no resources")
            resources = op.resources
            try:
                launcher.rm.assign_set(op.task, resources)
            except AllocationError:
                # State drifted since planning (e.g. another exit changed
                # the free pool): re-place the same core count now.
                resources = place_cores(
                    launcher.rm.free(),
                    launcher.rm.allocation.nodes,
                    op.resources.total_cores,
                    exclude_nodes=launcher.rm.excluded_nodes(),
                )
                launcher.rm.assign_set(op.task, resources)
            yield from launcher.start_task_with_resources(
                op.task,
                resources,
                user_script=op.user_script,
                params=op.params,
                preassigned=True,
            )
            return
        raise ActuationError(f"unknown low-level op {op.op!r}")
