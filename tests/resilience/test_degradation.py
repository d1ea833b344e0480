"""Graceful degradation in Actuation: failed ops, compensation, reports."""

from repro.core.actuation import ActuationStage
from repro.core.lowlevel import ActionPlan, LowLevelOp, PHASE_ACQUIRE
from repro.wms import TaskState

from tests.resilience.conftest import flaky_app_factory, make_sim, make_task


def make_plan(ops, plan_id="p1", created=0.0):
    return ActionPlan(plan_id=plan_id, workflow_id="W", created=created,
                      ops=ops, trigger_time=created)


class TestDegradation:
    def test_bad_op_fails_but_plan_still_completes(self):
        eng, _m, sav = make_sim(
            [
                make_task("A", flaky_app_factory(fail_incarnations=0, total_steps=50)),
                make_task("B", flaky_app_factory(fail_incarnations=0, total_steps=5),
                          autostart=False),
            ],
        )
        act = ActuationStage(sav)
        total = sav.rm.free().total_cores
        sav.launch_workflow()
        eng.run(until=2.0)
        rs = sav.rm.plan_placement(8)
        plan = make_plan([
            # Reconfig of a task that is not running: a clean op failure.
            LowLevelOp("reconfig_task", "ghost", PHASE_ACQUIRE, params={"x": 1}),
            LowLevelOp("start_task", "B", PHASE_ACQUIRE, resources=rs),
        ], created=eng.now)
        eng.run_process(act.execute(plan))
        eng.run()
        # The bad op degraded; the good op still ran to completion.
        assert sav.record("B").current.state == TaskState.COMPLETED
        report = plan.degradation
        assert report is not None and report.degraded and report.plan_id == "p1"
        assert len(report.failed_ops) == 1
        assert "ghost" in report.failed_ops[0]
        assert report.compensations == []  # nothing was booked for the reconfig
        points = sav.trace.points_for(label="op-failed:ghost")
        assert points and points[0].category == "failure"
        assert points[0].meta["plan"] == "p1"
        assert sav.trace.points_for(label="plan-degraded:p1")
        # Everything ran to completion and released; no cores leaked.
        assert sav.rm.free().total_cores == total

    def test_failed_start_op_releases_booked_cores(self):
        eng, _m, sav = make_sim(
            [
                make_task("A", flaky_app_factory(fail_incarnations=0, total_steps=50)),
                make_task("B", flaky_app_factory(fail_incarnations=0, total_steps=5),
                          autostart=False),
            ],
        )
        act = ActuationStage(sav)
        total = sav.rm.free().total_cores
        sav.launch_workflow()
        eng.run(until=2.0)
        free_before = sav.rm.free().total_cores
        # Book cores for B as a planner would, then hand Actuation a start
        # op with no resource set: the op fails and the booking must be
        # unwound by a compensating release.
        sav.rm.assign("B", 8)
        assert sav.rm.free().total_cores == free_before - 8
        plan = make_plan([LowLevelOp("start_task", "B", PHASE_ACQUIRE, resources=None)],
                         created=eng.now)
        eng.run_process(act.execute(plan))
        report = plan.degradation
        assert report is not None and report.degraded
        assert len(report.compensations) == 1
        assert "8 cores" in report.compensations[0]
        # The compensating release unwound B's booking; once A finished and
        # released its own cores, the whole pool is free again.
        assert sav.rm.assignment("B").total_cores == 0
        assert sav.rm.free().total_cores == total

    def test_clean_plan_has_no_degradation_report(self):
        eng, _m, sav = make_sim(
            [make_task("B", flaky_app_factory(fail_incarnations=0, total_steps=5),
                       autostart=False)],
        )
        act = ActuationStage(sav)
        sav.launch_workflow()
        eng.run(until=1.0)
        rs = sav.rm.plan_placement(8)
        plan = make_plan([LowLevelOp("start_task", "B", PHASE_ACQUIRE, resources=rs)],
                         created=eng.now)
        eng.run_process(act.execute(plan))
        eng.run()
        assert plan.degradation is None
        assert sav.record("B").current.state == TaskState.COMPLETED

    def test_degradation_report_describe(self):
        from repro.core.lowlevel import DegradationReport

        report = DegradationReport(
            plan_id="p9", time=3.0,
            failed_ops=["start X (8 procs) []: boom"],
            compensations=["released 8 cores held for X"],
        )
        text = report.describe()
        assert "p9" in text and "boom" in text and "released 8 cores" in text
        assert report.degraded
        empty = DegradationReport(plan_id="p0", time=0.0, failed_ops=[], compensations=[])
        assert not empty.degraded
